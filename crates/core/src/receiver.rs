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
//!
//! The layers added on top of that are components the receiver holds and
//! calls, as the sender does: tree aggregation (`tree::Aggregator`), NAK
//! scheduling (`nak`) and admission under dynamic membership
//! (`membership::Admission`). Abandoning transfers, whether the sender
//! went silent or a SYNC handed off past them, is one path:
//! `Receiver::abandon`.
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]

use crate::assembler::{Assembly, Offer};
use crate::config::{ProtocolConfig, ProtocolKind};
use crate::endpoint::{AppEvent, Dest, Endpoint, Io};
use crate::error::SessionError;
use crate::membership::Admission;
use crate::nak::NakSchedule;
use crate::packet::{self, Body, Packet};
use crate::tree::{Aggregator, TreeTopology};

use bytes::Bytes;
use rmtrace::TraceEvent;
use rmwire::{
    AllocBody, GroupSpec, Header, PacketFlags, PacketType, Rank, RepairBody, SeqNo, Time,
};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

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
pub(crate) struct TransferState {
    /// Own in-order progress (next expected sequence number).
    pub(crate) own_next: u32,
    /// Total packets, once known.
    k: Option<u32>,
    /// Payload reassembly (data transfers, until delivered).
    assembly: Option<Assembly>,
    delivered: bool,
    /// Tree mode: per-child cumulative coverage.
    pub(crate) child_cov: Vec<u32>,
    /// Last cumulative acknowledgment sent toward the sender/parent.
    pub(crate) sent_up: Option<u32>,
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
}

/// The tracked state of `transfer`, created on first sight. Borrows only
/// the map, so callers keep the receiver's other fields.
pub(crate) fn ensure_state(
    transfers: &mut BTreeMap<u32, TransferState>,
    n_children: usize,
    transfer: u32,
    is_alloc: bool,
) -> &mut TransferState {
    transfers
        .entry(transfer)
        .or_insert_with(|| TransferState::new(is_alloc, n_children))
}

/// The oldest transfer a receiver is still waiting on, with the sequence
/// number it needs next: either an incomplete transfer it has heard
/// packets of, or a data transfer announced by a completed allocation
/// round trip but not yet begun.
fn stalled_target(
    transfers: &BTreeMap<u32, TransferState>,
    alloc_pending: &HashMap<u32, AllocBody>,
) -> Option<(u32, u32)> {
    let incomplete = transfers
        .iter()
        .find(|(_, st)| !st.complete())
        .map(|(&t, st)| (t, st.own_next));
    let announced = alloc_pending
        .keys()
        .copied()
        .filter(|t| !transfers.contains_key(t))
        .min()
        .map(|t| (t, 0));
    incomplete.into_iter().chain(announced).min()
}

/// Which feedback packet a receiver sends.
#[derive(Clone, Copy)]
pub(crate) enum Feedback {
    /// A cumulative acknowledgment: the next sequence number expected.
    Ack,
    /// A gap report: the first sequence number missing.
    Nak,
}

/// What every ACK and NAK a receiver sends carries: its rank, its epoch
/// when membership is on, and the instant its trace record is stamped
/// with. Copied out of the receiver before one of its layers is borrowed.
#[derive(Clone, Copy)]
pub(crate) struct Stamp {
    rank: Rank,
    epoch: Option<u32>,
    now: Time,
}

impl Stamp {
    /// Queue one ACK or NAK to `dest`: the one place a receiver's feedback
    /// is counted, traced and encoded.
    pub(crate) fn send(self, io: &mut Io, kind: Feedback, dest: Dest, transfer: u32, seq: u32) {
        let (rank, s, t) = (self.rank, SeqNo(seq), self.now.as_nanos());
        let payload = match kind {
            Feedback::Ack => {
                io.stats.acks_sent += 1;
                io.tracer.emit(
                    t,
                    TraceEvent::AckSent {
                        transfer,
                        next: seq,
                    },
                );
                packet::ack(rank, transfer, s, self.epoch)
            }
            Feedback::Nak => {
                io.stats.naks_sent += 1;
                io.tracer.emit(t, TraceEvent::NakSent { transfer, seq });
                packet::nak(rank, transfer, s, self.epoch)
            }
        };
        io.send(dest, payload);
    }
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
    /// Counters, trace and the queued datagrams and events.
    io: Io,
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
    /// Tree aggregation, present exactly in the tree family.
    tree: Option<Aggregator>,
    /// When to NAK a gap.
    naks: NakSchedule,
    /// Epoch, admission cutoff and JOIN retries (dynamic membership).
    admission: Admission,
    /// Last instant any packet arrived (base of the receiver give-up
    /// timer).
    last_heard: Time,
}

impl Receiver {
    /// Build the receiver for `rank` within `group`. The `seed` feeds the
    /// random NAK delay of the multicast-suppression variant.
    pub fn new(cfg: ProtocolConfig, group: GroupSpec, rank: Rank, seed: u64) -> Self {
        cfg.validate(group.n_receivers as usize);
        assert!(!rank.is_sender(), "rank 0 is the sender");
        assert!(group.contains(rank), "{rank} outside the group");
        let tree = if let ProtocolKind::Tree { shape } = cfg.kind {
            Some(Aggregator::new(
                TreeTopology::new(group, shape).links(rank).clone(),
                cfg.liveness.child_evict_timeout,
            ))
        } else {
            None
        };
        Receiver {
            naks: NakSchedule::new(&cfg, rank, seed),
            admission: Admission::new(cfg.membership),
            cfg,
            group,
            rank,
            io: Io::new(rank, cfg.integrity),
            transfers: BTreeMap::new(),
            max_seen: 0,
            alloc_pending: HashMap::new(),
            spare: None,
            tree,
            last_heard: Time::ZERO,
        }
    }

    /// Build a receiver that is *not* yet a group member: it unicasts a
    /// JOIN to the sender (retried every `membership::JOIN_RETRY`) and
    /// discards all data until the sender's SYNC handoff admits it at a
    /// message boundary. Requires [`ProtocolConfig::membership`].
    pub fn new_joining(
        cfg: ProtocolConfig,
        group: GroupSpec,
        rank: Rank,
        seed: u64,
        now: Time,
    ) -> Self {
        assert!(cfg.membership, "joining requires dynamic membership");
        let mut r = Receiver::new(cfg, group, rank, seed);
        r.last_heard = now;
        r.admission.start_joining(now, rank, &mut r.io);
        r
    }

    /// Announce a voluntary departure: the sender drops this receiver
    /// from the proof obligation immediately.
    pub fn leave(&mut self) {
        self.admission.leave(self.rank, &mut self.io);
    }

    /// The membership epoch this receiver stamps on its ACKs/NAKs.
    pub fn epoch(&self) -> u32 {
        self.admission.epoch()
    }

    /// What this receiver's feedback carries at `now`.
    fn stamp(&self, now: Time) -> Stamp {
        Stamp {
            rank: self.rank,
            epoch: self.cfg.membership.then(|| self.admission.epoch()),
            now,
        }
    }

    /// Re-arm (or disarm) the receiver-driven retransmission timer.
    fn rearm_stall_timer(&mut self, now: Time) {
        self.naks.rearm_stall_timer(now, &self.cfg, || {
            stalled_target(&self.transfers, &self.alloc_pending).is_some()
        });
    }

    /// This receiver's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    fn n_children(&self) -> usize {
        self.tree.as_ref().map_or(0, Aggregator::n_children)
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
    /// handle and its capacity covers the message (`Self::sized_assembly`
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

    /// Count and trace a data or repair packet dropped unprocessed.
    fn discard(&mut self, now: Time, transfer: u32, seq: u32) {
        self.io.stats.data_discarded += 1;
        self.io
            .tracer
            .emit(now.as_nanos(), TraceEvent::DataDiscarded { transfer, seq });
    }

    fn on_data(&mut self, now: Time, header: Header, body: DataBody<'_>) {
        let _span = rmprof::span!(rmprof::Stage::RecvAssembly);
        self.io.stats.data_received += 1;
        // Any sender traffic proves the sender is alive (give-up timer).
        self.last_heard = now;
        let transfer = header.transfer;
        let seq = header.seq.0;
        // Pre-admission traffic (while joining: everything): the message it
        // belongs to completes without us, so tracking it would only grow
        // state the sender never resolves for this receiver.
        if !self.admission.admits(transfer) {
            self.discard(now, transfer, seq);
            return;
        }
        let is_alloc = matches!(body, DataBody::Alloc(_));
        let last = header.flags.contains(PacketFlags::LAST);
        // Retransmission traffic is the load signal scaling our NAK timers.
        if header.flags.contains(PacketFlags::RETX) {
            self.naks.note_retx(now);
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
            self.discard(now, transfer, seq);
            return;
        }

        let n_children = self.n_children();
        let st = ensure_state(&mut self.transfers, n_children, transfer, is_alloc);
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

        match offer {
            Offer::Duplicate => self.discard(now, transfer, seq),
            Offer::Rejected => self
                .io
                .tracer
                .emit(now.as_nanos(), TraceEvent::DataDiscarded { transfer, seq }),
            Offer::InOrder | Offer::Buffered => self
                .io
                .tracer
                .emit(now.as_nanos(), TraceEvent::DataRecv { transfer, seq }),
        }

        // Sample buffer occupancy for Table 1.
        let buffered = self
            .transfers
            .get(&transfer)
            .and_then(|s| s.assembly.as_ref())
            .map_or(0, |a| a.buffered_bytes());
        self.io.stats.sample_buffer(buffered);

        // Record the allocation body for the upcoming data transfer —
        // after capping what it may demand: the body reaches
        // `Assembly::preallocated`, so an uncapped `msg_len` is a
        // state-exhaustion primitive for anyone who can flip a bit.
        if let DataBody::Alloc(b) = body {
            if matches!(offer, Offer::InOrder) {
                let packets = b.msg_len.div_ceil(u64::from(b.packet_size.max(1)));
                if b.msg_len > MAX_ALLOC_BYTES || packets > MAX_ALLOC_PACKETS {
                    self.io.stats.decode_errors += 1;
                    self.io.stats.malformed_rx += 1;
                    self.io.tracer.emit(
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
            self.io.stats.messages_completed += 1;
            self.io
                .tracer
                .emit(now.as_nanos(), TraceEvent::Delivered { transfer, msg_id });
            self.io
                .events
                .push_back(AppEvent::MessageDelivered { msg_id, data });
            // A newly delivered message obsoletes the pending NAK state for
            // this transfer.
            self.naks.forget(|t| t == transfer);
        }
        if became_complete && is_alloc {
            st.delivered = true;
        }

        // Acknowledge per protocol policy.
        self.acknowledge(now, transfer, header.flags, seq, prev_next, offer);

        // NAK on detected gaps.
        if matches!(offer, Offer::Rejected) || (matches!(offer, Offer::Buffered) && seq > prev_next)
        {
            let expected = self.transfers[&transfer].own_next;
            let stamp = self.stamp(now);
            self.naks
                .consider(now, transfer, expected, &self.cfg, stamp, &mut self.io);
        }

        self.prune();
        self.rearm_stall_timer(now);
        if let Some(tree) = self.tree.as_mut() {
            tree.rearm(&self.transfers);
        }
    }

    /// The per-protocol acknowledgment decision after processing a data
    /// packet.
    fn acknowledge(
        &mut self,
        now: Time,
        transfer: u32,
        flags: PacketFlags,
        seq: u32,
        prev_next: u32,
        offer: Offer,
    ) {
        let st = &self.transfers[&transfer];
        let next = st.own_next;
        let ack = match self.cfg.kind {
            // Cumulative ACK for every packet heard.
            ProtocolKind::Ack => true,
            // Polled packets are acknowledged; so are retransmissions: a
            // retransmission means the sender is stalled waiting for state
            // it cannot otherwise observe (a gap filled under selective
            // repeat, or a lost poll response). The fec family inherits
            // this policy — decoded repairs carry RETX on their synthesized
            // header, so a successful decode reports progress the same way
            // a retransmission would.
            ProtocolKind::NakPolling { .. } | ProtocolKind::Fec { .. } => {
                flags.contains(PacketFlags::POLL) || flags.contains(PacketFlags::RETX)
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
                newly_token || completed_now || dup_token || retx_advance
            }
            ProtocolKind::Tree { .. } => {
                let force = matches!(offer, Offer::Duplicate)
                    && (flags.contains(PacketFlags::LAST) || flags.contains(PacketFlags::RETX));
                let stamp = self.stamp(now);
                let tree = self.tree.as_ref().expect("the tree family aggregates");
                let st = self.transfers.get_mut(&transfer).expect("state exists");
                tree.send_aggregate(transfer, st, force, stamp, &mut self.io);
                false
            }
        };
        if ack {
            let stamp = self.stamp(now);
            stamp.send(&mut self.io, Feedback::Ack, Dest::Sender, transfer, next);
        }
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
        self.io.stats.repairs_received += 1;
        self.last_heard = now;
        let transfer = header.transfer;
        if !self.admission.admits(transfer) {
            self.discard(now, transfer, body.base_seq);
            return;
        }
        // Reactive repair is retransmission traffic: feed the load signal
        // that stretches NAK suppression under overload. Proactive parity
        // is steady-state traffic and stays out of it.
        if header.ptype == PacketType::Repair {
            self.naks.note_retx(now);
        }
        // Replay gate: generations are strictly increasing per transfer.
        // An equal-or-older generation is a replayed (or badly reordered)
        // block; dropping it is never load-bearing because the sender
        // re-codes losses that stay unresolved.
        if let Some(st) = self.transfers.get(&transfer) {
            if st.repair_gen.is_some_and(|g| body.generation <= g) {
                self.io.stats.repairs_replayed += 1;
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
            self.discard(now, transfer, body.base_seq);
            return;
        }
        // Materialize the assembly exactly as the data path would, then
        // stamp the generation: the block counts as processed whatever the
        // decode outcome.
        let alloc_body = self.alloc_pending.get(&transfer).copied();
        let n_children = self.n_children();
        let st = ensure_state(&mut self.transfers, n_children, transfer, false);
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
        // Delivered: everything the block names is already held.
        let decoded = st
            .assembly
            .as_ref()
            .map_or(Ok(None), |asm| asm.decode(&body, payload));
        match decoded {
            Ok(None) => self.io.stats.repairs_useless += 1,
            Err(()) => self.io.stats.repairs_undecodable += 1,
            Ok(Some((seq, chunk))) => {
                self.io.stats.repairs_decoded += 1;
                self.io
                    .tracer
                    .emit(now.as_nanos(), TraceEvent::RepairDecoded { transfer, seq });
                // Feed the reconstruction through the ordinary data path
                // under a synthesized header. RETX makes the NakPolling-
                // style acknowledgment policy report the progress. It
                // carries no LAST: the sized assembly already knows `k`.
                let synth = Header {
                    ptype: PacketType::Data,
                    flags: PacketFlags::RETX,
                    src_rank: header.src_rank,
                    transfer,
                    seq: SeqNo(seq),
                };
                self.on_data(now, synth, DataBody::Chunk(&chunk));
            }
        }
    }

    // ------------------------------------------------------------------
    // Control packets and liveness
    // ------------------------------------------------------------------

    fn on_peer_ack(&mut self, now: Time, header: &Header, next_expected: u32) {
        self.io.stats.acks_received += 1;
        let stamp = self.stamp(now);
        if let Some(tree) = self.tree.as_mut() {
            let transfers = &mut self.transfers;
            tree.on_ack(now, header, next_expected, transfers, stamp, &mut self.io);
        }
    }

    /// The give-up deadline, when the config bounds how long a receiver
    /// waits on a silent sender with transfers incomplete.
    fn giveup_deadline(&self) -> Option<Time> {
        let g = self.cfg.liveness.receiver_giveup?;
        stalled_target(&self.transfers, &self.alloc_pending).map(|_| self.last_heard + g)
    }

    /// Abandon every incomplete message whose transfer is below `cutoff`
    /// (`u64::MAX`: all of them), announced-but-unstarted ones included:
    /// drop their state and any NAK pending for them, fail each with a
    /// typed error, and snapshot the flight recorder (when enabled) under
    /// `reason`, so the driver can surface the last moments before it.
    fn abandon(&mut self, now: Time, cutoff: u64, reason: &str) {
        let gone = |t: u32| u64::from(t) < cutoff;
        // Oldest transfer per abandoned message id, for the error report.
        let mut failed: BTreeMap<u64, u32> = BTreeMap::new();
        for (&t, st) in &self.transfers {
            if gone(t) && !st.complete() {
                failed.entry((t / 2) as u64).or_insert(t);
            }
        }
        for &t in self.alloc_pending.keys() {
            if gone(t) && !self.transfers.contains_key(&t) {
                failed.entry((t / 2) as u64).or_insert(t);
            }
        }
        self.transfers.retain(|&t, st| !gone(t) || st.complete());
        self.alloc_pending.retain(|&t, _| !gone(t));
        self.naks.forget(gone);
        self.rearm_stall_timer(now);
        if failed.is_empty() {
            return;
        }
        for (msg_id, transfer) in failed {
            self.io.stats.messages_failed += 1;
            self.io.events.push_back(AppEvent::MessageFailed {
                msg_id,
                error: SessionError::SenderStalled { transfer },
            });
        }
        self.io.flight_dump(now, reason);
    }

    /// A heartbeat arrived: from one of our tree children, it re-bases the
    /// child's eviction timer; from the sender, admission answers it.
    fn on_heartbeat(&mut self, now: Time, src: Rank, epoch: u32) {
        self.io.stats.heartbeats_received += 1;
        if let Some(tree) = self.tree.as_mut() {
            if tree.on_heartbeat(now, src, &self.transfers) {
                return;
            }
        }
        if src.is_sender() {
            self.last_heard = now;
            let parent = self.tree.as_ref().and_then(Aggregator::parent);
            self.admission
                .on_announce(now, epoch, self.rank, parent, &mut self.io);
        }
    }

    /// The SYNC handoff: we are a member from `body.epoch` on, obligated
    /// for transfers from `body.next_transfer`. Anything older completes
    /// (or fails) without us.
    fn on_sync(&mut self, now: Time, body: rmwire::SyncBody) {
        self.last_heard = now;
        let cutoff = self.admission.on_sync(now, &body, &mut self.io);
        if body.detached_root() {
            if let Some(tree) = self.tree.as_mut() {
                tree.detach();
            }
        }
        // SYNC is authoritative about where the transfer progression
        // stands: advance the pruning horizon so fresh state is tracked.
        self.max_seen = self.max_seen.max(cutoff);
        // Abandon incomplete pre-admission transfers: the sender fulfils
        // them toward the members of their epoch, not toward us.
        self.abandon(now, cutoff.into(), "SYNC abandoned pre-admission transfers");
        self.admission.admitted(&mut self.io.stats);
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
        }
        if let Some(tree) = &self.tree {
            tree.audit(&self.transfers, &mut a);
        }
        a.finish()
    }

    /// Hash the protocol-logical state into `h`: everything that shapes
    /// future behavior except clocks and counters (see
    /// [`crate::Sender::hash_protocol_state`] for the soundness argument).
    pub fn hash_protocol_state(&self, mut h: &mut dyn Hasher) {
        h.write_u16(self.rank.0);
        for (&id, st) in &self.transfers {
            h.write_u32(id);
            h.write_u32(st.own_next);
            st.k.hash(&mut h);
            h.write_u8(st.delivered as u8);
            for &c in &st.child_cov {
                h.write_u32(c);
            }
            st.sent_up.hash(&mut h);
            st.repair_gen.hash(&mut h);
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
        self.naks.hash_into(h);
        if let Some(tree) = &self.tree {
            tree.hash_into(h);
        }
        self.admission.hash_into(h);
        h.write_usize(self.io.out.len());
        h.write_usize(self.io.events.len());
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
        let Some(Packet { header, body }) = self.io.parse(now, datagram) else {
            return;
        };
        match body {
            Body::Data(chunk) => self.on_data(now, header, DataBody::Chunk(chunk)),
            Body::Alloc(alloc) => self.on_data(now, header, DataBody::Alloc(alloc)),
            Body::Ack { next_expected, .. } => self.on_peer_ack(now, &header, next_expected.0),
            Body::Nak { expected, .. } => {
                self.naks
                    .on_peer_nak(header.transfer, expected.0, &mut self.io.stats)
            }
            Body::Heartbeat { epoch } => self.on_heartbeat(now, header.src_rank, epoch),
            // The sender acknowledged our JOIN. Admission itself still
            // waits on the SYNC handoff at the next message boundary.
            Body::Welcome { epoch } => {
                self.last_heard = now;
                self.admission.adopt_epoch(now, epoch, &mut self.io);
            }
            Body::Sync(sync) => self.on_sync(now, sync),
            Body::Coded { block, payload } => self.on_repair(now, header, block, payload),
            // Sender-bound admission control that strayed to a receiver.
            Body::Join { .. } | Body::Leave { .. } => self.io.stats.data_discarded += 1,
        }
        #[cfg(debug_assertions)]
        self.debug_audit();
    }

    fn handle_timeout(&mut self, now: Time) {
        let stamp = self.stamp(now);
        let stalled = || stalled_target(&self.transfers, &self.alloc_pending);
        self.naks
            .on_timeout(now, &self.cfg, stamp, stalled, &mut self.io);
        if let Some(tree) = self.tree.as_mut() {
            tree.on_timeout(now, &mut self.transfers, stamp, &mut self.io);
        }
        self.admission.on_timeout(now, self.rank, &mut self.io);
        if self.giveup_deadline().is_some_and(|d| d <= now) {
            self.abandon(now, u64::MAX, "receiver gave up on silent sender");
        }
        #[cfg(debug_assertions)]
        self.debug_audit();
    }

    fn poll_timeout(&self) -> Option<Time> {
        [
            self.naks.deadline(),
            self.tree.as_ref().and_then(Aggregator::deadline),
            self.admission.deadline(),
            self.giveup_deadline(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    fn is_idle(&self) -> bool {
        self.io.out.is_empty() && self.poll_timeout().is_none()
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
    use crate::config::TreeShape;
    use crate::endpoint::Transmit;
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
                Packet {
                    header,
                    body: Body::Ack { next_expected, .. },
                } => Some((t.dest, header.transfer, next_expected.0)),
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
                Packet {
                    body: Body::Nak { expected, .. },
                    ..
                } => Some(expected.0),
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
        let nak = packet::nak(Rank(2), 1, SeqNo(0), None);
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

    use rmwire::SyncBody;

    fn mcfg(kind: ProtocolKind) -> ProtocolConfig {
        let mut c = cfg(kind);
        c.membership = true;
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
            Packet { header, body: Body::Join { last_epoch: 0 } } if header.src_rank == Rank(2)
        ));
        // Data from the in-flight message is not ours: discarded, no ACK.
        r.handle_datagram(Time::ZERO, &data(1, 0, PacketFlags::LAST, b"aa"));
        assert!(drain(&mut r).is_empty());
        assert_eq!(r.stats().data_discarded, 1);
        // WELCOME brings the epoch; SYNC at the boundary of message 1
        // admits us for transfers >= 2.
        r.handle_datagram(
            Time::ZERO,
            &packet::encode_membership(PacketType::Welcome, Rank::SENDER, 2),
        );
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
            Packet {
                body:
                    Body::Ack {
                        next_expected,
                        epoch,
                    },
                ..
            } => {
                assert_eq!(epoch, Some(2));
                assert_eq!(next_expected.0, 1);
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
        assert_eq!(d, Time::ZERO + crate::membership::JOIN_RETRY);
        r.handle_timeout(d);
        let out = drain(&mut r);
        assert_eq!(out.len(), 1, "JOIN retransmitted");
        assert!(matches!(
            Packet::parse(&out[0].payload).unwrap(),
            Packet {
                body: Body::Join { .. },
                ..
            }
        ));
        r.handle_datagram(d, &packet::encode_sync(Rank::SENDER, sync_body(2, 0, 0)));
        assert!(r.poll_timeout().is_none(), "retry disarmed after SYNC");
    }

    #[test]
    fn heartbeat_reply_carries_epoch() {
        let mut r = recv(mcfg(ProtocolKind::Ack), 2, 1);
        r.handle_datagram(
            Time::ZERO,
            &packet::encode_membership(PacketType::Heartbeat, Rank::SENDER, 3),
        );
        assert_eq!(r.epoch(), 3, "announce fast-forwards the epoch");
        let out = drain(&mut r);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dest, Dest::Sender);
        match Packet::parse(&out[0].payload).unwrap() {
            Packet {
                header,
                body: Body::Heartbeat { epoch },
            } => {
                assert_eq!(header.src_rank, Rank(1));
                assert_eq!(epoch, 3);
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
            Packet { header, body: Body::Leave { epoch: 1 } } if header.src_rank == Rank(1)
        ));
    }
}
