//! The multicast sender engine.
//!
//! One [`Sender`] implements all four protocol families; they differ only
//! in which acknowledgments receivers produce (receiver side) and in the
//! release rule that converts acknowledgments into freed buffers (the
//! [`crate::coverage`] trackers). Everything else — window flow control,
//! Go-Back-N retransmission, sender-driven timers, retransmission
//! suppression, the allocation handshake — is shared, exactly as in the
//! paper's implementation (§4).
//!
//! The layers added on top of that core are components the sender holds
//! and calls, each owning its state and decisions: membership with
//! failure detection ([`crate::membership`]), slow-receiver quarantine
//! (`quarantine`) and overload control ([`crate::overload`]). The sender
//! keeps the windows and carries their decisions out. Every eviction,
//! whatever caused it, goes through one path: `Sender::evict`.
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]

use crate::config::{ProtocolConfig, ProtocolKind, WindowDiscipline, RTO_MAX};
use crate::coverage::Release;
use crate::endpoint::{self, io, AppEvent, Dest, Endpoint, Transmit};
use crate::error::SessionError;
use crate::fec::{self, FecState};
use crate::membership::Members;
use crate::overload::Overload;
use crate::packet::{self, Body, Packet};
use crate::quarantine::{Quarantine, Round};
use crate::stats::Stats;
use crate::tree::TreeTopology;
use crate::window::SendWindow;
use bytes::Bytes;
use rmtrace::{TraceEvent, Tracer};
use rmwire::{
    AllocBody, Duration, GroupSpec, PacketFlags, PacketType, Rank, RepairBody, SeqNo, Time,
};
use std::collections::VecDeque;

/// One in-flight transfer: a message's allocation round trip or its data.
#[derive(Clone)]
struct Transfer {
    msg_id: u64,
    /// The whole message, carried through the allocation round trip to
    /// the data transfer.
    data: Bytes,
    phase: Phase,
    win: SendWindow,
    release: Release,
    /// Consecutive retransmission timeouts without window progress
    /// (liveness bound; reset whenever the window base advances).
    streak: u32,
    /// Effective RTO, doubled on each consecutive timeout when the
    /// liveness bound is on and reset on progress.
    cur_rto: Duration,
    /// `true` while the window is full with payload remaining — edge
    /// detector so `WindowStall` traces once per stall, not per attempt.
    stalled: bool,
    /// The coding state, which only a data transfer of the fec family has.
    fec: Option<FecState>,
}

impl Transfer {
    /// The wire transfer id, which `msg_id` and `phase` determine.
    fn id(&self) -> u32 {
        match self.phase {
            Phase::Alloc => Sender::alloc_transfer_id(self.msg_id),
            Phase::Data => Sender::data_transfer_id(self.msg_id),
        }
    }

    /// Free the window below `upto`. On progress the liveness bound and
    /// the stall edge start over; returns whether the base moved.
    fn release_to(&mut self, upto: u32, base_rto: Duration) -> bool {
        let before = self.win.base();
        self.win.release(upto);
        let progressed = self.win.base() > before;
        if progressed {
            self.streak = 0;
            self.cur_rto = base_rto;
            self.stalled = false;
        }
        progressed
    }
}

/// Which half of the message a transfer is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Alloc,
    Data,
}

/// Which in-flight transfer an operation addresses: the current message's,
/// or the next message's pipelined allocation round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Which {
    Cur,
    Staged,
}

/// The sender endpoint (rank 0) of a reliable multicast group.
///
/// Cloning forks the entire protocol state (the `rmcheck explore` model
/// checker branches worlds this way); the clone's tracer comes back
/// *detached* — see [`rmtrace::Tracer`]'s `Clone` contract.
#[derive(Clone)]
pub struct Sender {
    cfg: ProtocolConfig,
    group: GroupSpec,
    tree: Option<TreeTopology>,
    stats: Stats,
    out: VecDeque<Transmit>,
    events: VecDeque<AppEvent>,
    queue: VecDeque<(u64, Bytes)>,
    next_msg_id: u64,
    /// The message being transferred.
    transfer: Option<Transfer>,
    /// The next message's pipelined allocation round trip (when
    /// `pipeline_handshake`). Once every receiver acknowledged it, its
    /// window stays fully released until the current message ends.
    staged: Option<Transfer>,
    /// Rate pacing: the instant the next fresh data packet may enter the
    /// window (rate-based flow control option).
    pace_gate: Time,
    /// Who is in the group: evictions, epoch, failure detector, joins.
    members: Members,
    /// Slow receivers served catch-up off the critical path.
    quarantine: Quarantine,
    /// AIMD cap, feedback admission and load-scaled suppression.
    overload: Overload,
    /// Trace sink + flight recorder handle (inert by default).
    tracer: Tracer,
    /// Timestamp of the most recent driver call, for trace emission from
    /// paths that do not carry `now` (data emits).
    now_cache: Time,
}

impl Sender {
    /// Build a sender for `group` with the given configuration
    /// (validated here).
    pub fn new(cfg: ProtocolConfig, group: GroupSpec) -> Self {
        cfg.validate(group.n_receivers as usize);
        let tree = if let ProtocolKind::Tree { shape } = cfg.kind {
            Some(TreeTopology::new(group, shape))
        } else {
            None
        };
        let n = group.n_receivers as usize;
        Sender {
            cfg,
            group,
            tree,
            stats: Stats::default(),
            out: VecDeque::new(),
            events: VecDeque::new(),
            queue: VecDeque::new(),
            next_msg_id: 0,
            transfer: None,
            staged: None,
            pace_gate: Time::ZERO,
            members: Members::new(n, cfg.membership),
            quarantine: Quarantine::new(&cfg.overload, n),
            overload: Overload::new(&cfg, n),
            tracer: Tracer::off(Rank::SENDER.0),
            now_cache: Time::ZERO,
        }
    }

    /// The current membership epoch (`0` when membership is disabled).
    pub fn epoch(&self) -> u32 {
        self.members.epoch()
    }

    /// The configuration this sender runs.
    pub fn config(&self) -> &ProtocolConfig {
        &self.cfg
    }

    /// Queue a message for reliable multicast; transfers run strictly in
    /// submission order. Returns the message id.
    pub fn send_message(&mut self, now: Time, data: Bytes) -> u64 {
        self.now_cache = self.now_cache.max(now);
        let id = self.next_msg_id;
        self.next_msg_id += 1;
        self.queue.push_back((id, data));
        self.start_next(now);
        self.maybe_stage_next(now);
        #[cfg(debug_assertions)]
        self.debug_audit();
        id
    }

    /// Messages accepted but not yet fully acknowledged.
    pub fn in_flight(&self) -> usize {
        self.queue.len() + usize::from(self.transfer.is_some()) + usize::from(self.staged.is_some())
    }

    fn start_next(&mut self, now: Time) {
        if self.transfer.is_some() {
            return;
        }
        let Some((msg_id, data)) = self.queue.pop_front() else {
            return;
        };
        let phase = if self.cfg.handshake {
            Phase::Alloc
        } else {
            Phase::Data
        };
        self.begin_transfer(now, msg_id, data, phase);
    }

    /// Transfer id of message `m`'s allocation round trip. Ids hold the
    /// message id's low 31 bits, so they wrap from message 2^31 on.
    pub fn alloc_transfer_id(msg_id: u64) -> u32 {
        (msg_id as u32).wrapping_mul(2)
    }

    /// Transfer id of message `m`'s data.
    pub fn data_transfer_id(msg_id: u64) -> u32 {
        Self::alloc_transfer_id(msg_id).wrapping_add(1)
    }

    /// Packets needed for a `len`-byte message at `packet_size`.
    pub fn packet_count(len: usize, packet_size: usize) -> u32 {
        (len.div_ceil(packet_size)).max(1) as u32
    }

    fn make_transfer(&self, msg_id: u64, data: Bytes, phase: Phase) -> Transfer {
        let k = match phase {
            Phase::Alloc => 1,
            Phase::Data => Self::packet_count(data.len(), self.cfg.packet_size),
        };
        let (n, tree) = (self.group.n_receivers as usize, self.tree.as_ref());
        let release = Release::new(self.cfg.kind, k, n, tree, &self.members);
        let cap = self.overload.cap().unwrap_or(self.cfg.window.max(1) as u32);
        let fec_family = matches!(self.cfg.kind, ProtocolKind::Fec { .. });
        Transfer {
            msg_id,
            data,
            phase,
            win: SendWindow::new(k, cap),
            release,
            streak: 0,
            cur_rto: self.cfg.rto,
            stalled: false,
            fec: (fec_family && phase == Phase::Data).then(FecState::default),
        }
    }

    fn begin_transfer(&mut self, now: Time, msg_id: u64, data: Bytes, phase: Phase) {
        self.transfer = Some(self.make_transfer(msg_id, data, phase));
        self.members.start_heartbeats(now, io!(self));
        self.pump(now);
    }

    /// Handshake pipelining: launch the next queued message's allocation
    /// round trip while the current message's data transfer runs.
    fn maybe_stage_next(&mut self, now: Time) {
        if !(self.cfg.pipeline_handshake && self.cfg.handshake) {
            return;
        }
        let data_flowing = self
            .transfer
            .as_ref()
            .is_some_and(|t| t.phase == Phase::Data);
        if self.staged.is_some() || !data_flowing {
            return;
        }
        let Some((msg_id, data)) = self.queue.pop_front() else {
            return;
        };
        self.staged = Some(self.make_transfer(msg_id, data, Phase::Alloc));
        self.pump(now);
    }

    /// The transfer `which` names, while it is in flight. A staged
    /// allocation every receiver acknowledged is not: it only waits for the
    /// current message to end, and takes no more feedback or timeouts.
    fn tref(&self, which: Which) -> Option<&Transfer> {
        match which {
            Which::Cur => self.transfer.as_ref(),
            Which::Staged => self.staged.as_ref().filter(|t| !t.win.all_released()),
        }
    }

    fn tmut(&mut self, which: Which) -> Option<&mut Transfer> {
        match which {
            Which::Cur => self.transfer.as_mut(),
            Which::Staged => self.staged.as_mut().filter(|t| !t.win.all_released()),
        }
    }

    /// Which in-flight transfer has this id, if any.
    fn which_by_id(&self, id: u32) -> Option<Which> {
        [Which::Cur, Which::Staged]
            .into_iter()
            .find(|&w| self.tref(w).is_some_and(|t| t.id() == id))
    }

    /// Fill the window with fresh packets (respecting the rate pacer when
    /// rate-based flow control is enabled).
    fn pump(&mut self, now: Time) {
        let rate = self.cfg.rate_limit_bytes_per_sec;
        let mut stall = None;
        while let Some(t) = self.transfer.as_mut() {
            if !t.win.can_send() {
                // Edge-detect a flow-control stall: the window is full
                // while payload remains unsent.
                if t.win.next() < t.win.k() && !t.stalled {
                    t.stalled = true;
                    stall = Some((t.msg_id, t.id(), t.win.base()));
                }
                break;
            }
            if rate.is_some() && self.pace_gate > now {
                break;
            }
            let seq = t.win.mark_sent(now);
            if let Some(r) = rate {
                let bytes = self.cfg.packet_size as u64;
                let ns = bytes.saturating_mul(1_000_000_000) / r;
                let base = self.pace_gate.max(now);
                self.pace_gate = base + Duration::from_nanos(ns);
            }
            self.emit_data(Which::Cur, seq, false, Dest::Receivers);
            self.fec_fresh(now, seq);
        }
        // The staged allocation round trip is one tiny packet: exempt from
        // pacing, never window-limited beyond its single slot.
        while let Some(t) = self.tmut(Which::Staged) {
            if !t.win.can_send() {
                break;
            }
            let seq = t.win.mark_sent(now);
            self.emit_data(Which::Staged, seq, false, Dest::Receivers);
        }
        if let Some((msg_id, transfer, base)) = stall {
            self.tracer
                .emit(now.as_nanos(), TraceEvent::WindowStall { transfer, base });
            self.overload.on_stall(now, (msg_id, transfer), io!(self));
        }
        if let Some(t) = &self.transfer {
            self.stats
                .sample_buffer(t.win.buffered_bytes(self.cfg.packet_size));
        }
    }

    /// The pacing deadline, when the pacer is what is holding the window
    /// back.
    fn pace_deadline(&self) -> Option<Time> {
        self.cfg.rate_limit_bytes_per_sec?;
        let t = self.transfer.as_ref()?;
        if t.win.can_send() {
            Some(self.pace_gate)
        } else {
            None
        }
    }

    /// Encode and queue packet `seq` of a transfer toward `dest` (the
    /// group, or one receiver for unicast retransmission).
    fn emit_data(&mut self, which: Which, seq: u32, retx: bool, dest: Dest) {
        let t = self.tref(which).expect("active transfer");
        let (tid, k, phase) = (t.id(), t.win.k(), t.phase);
        let mut flags = PacketFlags::EMPTY;
        if seq + 1 == k {
            flags |= PacketFlags::LAST;
        }
        if retx {
            flags |= PacketFlags::RETX;
        }
        if let ProtocolKind::NakPolling { poll_interval, .. }
        | ProtocolKind::Fec { poll_interval, .. } = self.cfg.kind
        {
            let i = poll_interval as u32;
            if seq % i == i - 1 || seq + 1 == k {
                flags |= PacketFlags::POLL;
            }
        } else {
            // The other protocols acknowledge by their own rules; POLL is
            // set for uniformity on the final packet (harmless elsewhere).
            if seq + 1 == k {
                flags |= PacketFlags::POLL;
            }
        }

        let (payload, copied) = match phase {
            Phase::Alloc => {
                let body = AllocBody {
                    msg_len: t.data.len() as u64,
                    data_transfer: Self::data_transfer_id(t.msg_id),
                    packet_size: self.cfg.packet_size as u32,
                };
                (packet::encode_alloc(Rank::SENDER, tid, flags, body), 0usize)
            }
            Phase::Data => {
                let msg = &t.data;
                let ps = self.cfg.packet_size;
                let start = seq as usize * ps;
                let end = (start + ps).min(msg.len());
                let chunk = msg.get(start..end).unwrap_or_default();
                let copied = if self.cfg.charge_copy && !retx {
                    chunk.len()
                } else {
                    0
                };
                (
                    packet::encode_data(Rank::SENDER, tid, SeqNo(seq), flags, chunk),
                    copied,
                )
            }
        };

        if retx {
            self.stats.retx_sent += 1;
            if self.tracer.active() {
                let nth = self
                    .tref(which)
                    .and_then(|t| t.win.slot(seq))
                    .map_or(0, |s| s.retx);
                self.tracer.emit(
                    self.now_cache.as_nanos(),
                    TraceEvent::Retransmit {
                        transfer: tid,
                        seq,
                        nth,
                    },
                );
            }
        } else {
            self.stats.data_sent += 1;
            if phase == Phase::Data {
                self.stats.payload_bytes_sent += (payload.len() - rmwire::HEADER_LEN) as u64;
                self.stats.user_copy_bytes += copied as u64;
            }
            self.tracer.emit(
                self.now_cache.as_nanos(),
                TraceEvent::DataSent { transfer: tid, seq },
            );
        }
        self.out.push_back(Transmit {
            dest,
            payload,
            copied,
        });
    }

    /// Membership gate for feedback from `rank`: `false` means it must not
    /// touch window state. A refusal may have queued an implicit rejoin,
    /// admitted on the spot if the sender sits at a message boundary.
    fn accept_member_traffic(&mut self, now: Time, rank: Rank, epoch: Option<u32>) -> bool {
        let accepted = self.members.accept(rank, epoch, &mut self.stats);
        if !accepted {
            self.try_admit(now);
        }
        accepted
    }

    fn on_ack(
        &mut self,
        now: Time,
        rank: Rank,
        transfer_id: u32,
        next_expected: u32,
        epoch: Option<u32>,
    ) {
        let _span = rmprof::span!(rmprof::Stage::SenderWindow);
        self.stats.acks_received += 1;
        if rank.is_sender() || !self.group.contains(rank) {
            return;
        }
        if !self.accept_member_traffic(now, rank, epoch) {
            return;
        }
        let Some(which) = self.which_by_id(transfer_id) else {
            return;
        };
        self.overload.note_feedback(now);
        // A quarantined peer's ACK only advances its catch-up horizon; it
        // is no longer part of the release obligation.
        if self
            .quarantine
            .note_horizon(rank, transfer_id, next_expected)
        {
            if self.current_complete() {
                self.finish_transfer(now);
            }
            return;
        }
        // Feedback-storm pacing: shed excess control traffic before it
        // reaches window bookkeeping. Completion-critical ACKs (those
        // covering a whole transfer) are always admitted.
        let completion = self.tref(which).is_some_and(|t| next_expected >= t.win.k());
        if !completion && !self.overload.admit_ack(now, transfer_id, io!(self)) {
            return;
        }
        self.tracer.emit(
            now.as_nanos(),
            TraceEvent::AckReceived {
                from: rank.0,
                transfer: transfer_id,
                next: next_expected,
            },
        );
        let base_rto = self.cfg.rto;
        let t = self.tmut(which).expect("transfer exists");
        if let Some(released) = t.release.update(rank, next_expected.min(t.win.k())) {
            let before = t.win.base();
            let progressed = t.release_to(released, base_rto);
            let (msg_id, tid, new_base) = (t.msg_id, t.id(), t.win.base());
            let done = t.win.all_released();
            if progressed {
                self.tracer.emit(
                    now.as_nanos(),
                    TraceEvent::WindowRelease {
                        transfer: tid,
                        base: new_base,
                    },
                );
                if which == Which::Cur {
                    // Acknowledged progress is the AIMD growth signal.
                    let acked = new_base - before;
                    let cap = self
                        .overload
                        .on_progress(now, (msg_id, tid), acked, io!(self));
                    self.hold_window(cap);
                }
            }
            if done {
                // Completion may still be gated on a quarantined receiver's
                // catch-up (buffers hold the payload it is still owed). A
                // completed staged allocation waits for the current message
                // to end; its data transfer starts then.
                if which == Which::Cur && self.current_complete() {
                    self.finish_transfer(now);
                }
            } else {
                self.pump(now);
            }
        }
    }

    fn on_nak(
        &mut self,
        now: Time,
        rank: Rank,
        transfer_id: u32,
        expected: u32,
        epoch: Option<u32>,
    ) {
        let _span = rmprof::span!(rmprof::Stage::SenderWindow);
        self.stats.naks_received += 1;
        if rank.is_sender() || !self.group.contains(rank) {
            return;
        }
        if !self.accept_member_traffic(now, rank, epoch) {
            return;
        }
        let Some(which) = self.which_by_id(transfer_id) else {
            return;
        };
        self.overload.note_feedback(now);
        // A quarantined peer's NAK carries its catch-up horizon (it holds
        // everything below `expected`); the catch-up path serves it.
        if self.quarantine.note_horizon(rank, transfer_id, expected) {
            return;
        }
        if !self
            .overload
            .admit_nak(now, transfer_id, expected, io!(self))
        {
            return;
        }
        self.tracer.emit(
            now.as_nanos(),
            TraceEvent::NakReceived {
                from: rank.0,
                transfer: transfer_id,
                seq: expected,
            },
        );
        if which == Which::Cur {
            // A fresh (non-duplicate) NAK is a loss signal.
            self.congestion(now, transfer_id);
        }
        // The fec family aggregates NAKs into coded repairs instead of
        // answering each one; anything the coding buffer cannot take
        // (allocation round trip, receiver index beyond the loser bitmask,
        // buffer full) falls through to a plain retransmission.
        if self.fec_buffer_nak(now, rank, which, expected) {
            return;
        }
        let dest = if self.cfg.unicast_retx_on_nak {
            Dest::Rank(rank)
        } else {
            Dest::Receivers
        };
        // Go-Back-N resends everything outstanding from the gap on;
        // selective repeat only the packet named.
        let Some(t) = self.tref(which) else {
            return;
        };
        let seqs = match self.cfg.discipline {
            WindowDiscipline::GoBackN => expected.max(t.win.base())..t.win.next(),
            WindowDiscipline::SelectiveRepeat => expected..expected.saturating_add(1),
        };
        self.retransmit(which, now, seqs, dest);
    }

    /// Retransmit each of `seqs` that still has a live window slot toward
    /// `dest`, unless its suppression clock says it went out too recently.
    /// Every retransmission comes through here: a NAK under either
    /// discipline and a timeout under either.
    fn retransmit(
        &mut self,
        which: Which,
        now: Time,
        seqs: impl IntoIterator<Item = u32>,
        dest: Dest,
    ) {
        let suppress = self.overload.suppress(self.cfg.retx_suppress, now);
        for seq in seqs {
            let Some(slot) = self.tmut(which).and_then(|t| t.win.slot_mut(seq)) else {
                continue;
            };
            if now.saturating_since(slot.last_tx).as_nanos() >= suppress.as_nanos() {
                slot.last_tx = now;
                slot.retx += 1;
                self.emit_data(which, seq, true, dest);
            } else {
                self.stats.retx_suppressed += 1;
            }
        }
    }

    /// Try to absorb a NAK into the coding buffer of the transfer it names,
    /// which only a fec data transfer has. Returns `true` when buffered —
    /// the flush timer will answer it (and every other loss gathered in
    /// the aggregation window) with coded repairs. Returns `false` for
    /// anything the buffer cannot take: a transfer without one, a receiver
    /// index beyond the 64-bit loser bitmask, a sequence with no live
    /// window slot, or a full buffer — the caller then falls back to plain
    /// retransmission, which is always correct.
    fn fec_buffer_nak(&mut self, now: Time, rank: Rank, which: Which, seq: u32) -> bool {
        let deadline = now + self.cfg.retx_suppress;
        let idx = rank.receiver_index();
        let buffered = self.tmut(which).is_some_and(|t| match &mut t.fec {
            Some(f) if t.win.slot(seq).is_some() => f.buffer_nak(seq, idx, deadline),
            _ => false,
        });
        if buffered {
            self.stats.naks_coded += 1;
        }
        buffered
    }

    /// Flush the current transfer's aggregation buffer when its deadline is
    /// due: prune losses whose window slots have since been released,
    /// partition the rest into decodable blocks ([`fec::greedy_blocks`])
    /// and multicast one coded REPAIR per block.
    fn fec_flush(&mut self, now: Time) {
        let ProtocolKind::Fec { max_coded, .. } = self.cfg.kind else {
            return;
        };
        let Some(t) = self.transfer.as_mut() else {
            return;
        };
        let Some(f) = t
            .fec
            .as_mut()
            .filter(|f| f.deadline().is_some_and(|d| d <= now))
        else {
            return;
        };
        // Span opens once the flush is real work (past the cheap gates),
        // so idle timer polls do not flood the fec.encode histogram.
        let _span = rmprof::span!(rmprof::Stage::FecEncode);
        for body in f.flush(max_coded, |s| t.win.slot(s).is_some()) {
            self.emit_coded(now, PacketType::Repair, body);
        }
    }

    /// Note a fresh data packet entering the wire; when it completes a
    /// run of `parity_every` consecutive sequences, multicast the
    /// proactive PARITY block over the run (heals any single loss in the
    /// run with no feedback round trip).
    fn fec_fresh(&mut self, now: Time, seq: u32) {
        let ProtocolKind::Fec { parity_every, .. } = self.cfg.kind else {
            return;
        };
        let f = self.transfer.as_mut().and_then(|t| t.fec.as_mut());
        if let Some(body) = f.and_then(|f| f.note_fresh(seq, parity_every as u32)) {
            // Past the gates: a parity run is complete and the XOR is owed.
            let _prof = rmprof::span!(rmprof::Stage::FecEncode);
            self.emit_coded(now, PacketType::Parity, body);
        }
    }

    /// XOR the packets `body` names out of the current message and
    /// multicast the coded block: a REPAIR answering NAKs, or a proactive
    /// PARITY.
    fn emit_coded(&mut self, now: Time, ptype: PacketType, body: RepairBody) {
        let t = self.transfer.as_mut().expect("coding the current transfer");
        let (transfer, base, coded) = (t.id(), body.base_seq, body.coded_count());
        let xor = fec::xor_chunks(&t.data, self.cfg.packet_size, body.seqs());
        let event = if ptype == PacketType::Repair {
            // Coded slots count as retransmitted: the shared suppression
            // clock keeps a straggler NAK from triggering a plain retx of
            // a packet the repair just healed.
            for s in body.seqs() {
                if let Some(slot) = t.win.slot_mut(s) {
                    slot.last_tx = now;
                    slot.retx += 1;
                }
            }
            self.stats.repairs_sent += 1;
            let generation = body.generation;
            TraceEvent::RepairSent {
                transfer,
                base,
                coded,
                generation,
            }
        } else {
            self.stats.parity_sent += 1;
            TraceEvent::ParitySent {
                transfer,
                base,
                coded,
            }
        };
        self.tracer.emit(now.as_nanos(), event);
        self.out.push_back(Transmit {
            dest: Dest::Receivers,
            payload: packet::encode_coded(ptype, Rank::SENDER, transfer, body, &xor),
            copied: 0,
        });
    }

    fn finish_transfer(&mut self, now: Time) {
        let Transfer {
            msg_id,
            data,
            phase,
            ..
        } = self.transfer.take().expect("finishing without a transfer");
        match phase {
            Phase::Alloc => {
                self.begin_transfer(now, msg_id, data, Phase::Data);
                // Data is now flowing: the next message's allocation may
                // ride alongside it.
                self.maybe_stage_next(now);
            }
            Phase::Data => {
                self.stats.messages_completed += 1;
                self.events.push_back(AppEvent::MessageSent { msg_id });
                self.close_message(now, msg_id);
            }
        }
    }

    /// The current message `msg_id` ended, completed or abandoned: at the
    /// boundary quarantined receivers (all caught up, by the completion
    /// gate) rejoin the proof obligation and any backpressure edge clears.
    /// Then promote the pipelined next message, or start one from the
    /// queue.
    fn close_message(&mut self, now: Time, msg_id: u64) {
        debug_assert!(self.transfer.is_none());
        self.quarantine.rejoin_all(now, io!(self));
        self.overload
            .clear_backpressure(now, (msg_id, 0), io!(self));
        // Message boundary: admit pending joiners before the next message's
        // proof obligation is built (no-op while a staged allocation is
        // still in flight — its release was built on the old membership).
        self.try_admit(now);
        if let Some(st) = self.staged.take() {
            // Promote the pipelined next message.
            if st.win.all_released() {
                // Its allocation already completed: straight to data.
                self.begin_transfer(now, st.msg_id, st.data, Phase::Data);
            } else {
                // Allocation still in flight: it becomes the current
                // transfer, window state intact.
                self.transfer = Some(st);
            }
        } else {
            self.start_next(now);
        }
        self.maybe_stage_next(now);
    }

    /// The current transfer is fully released and no quarantined receiver
    /// is still owed any of it.
    fn current_complete(&self) -> bool {
        self.transfer.as_ref().is_some_and(|t| {
            t.win.all_released() && !self.quarantine.blocks_completion(t.id(), t.win.k())
        })
    }

    /// The message and transfer an eviction outside a stalled transfer is
    /// reported against: the current one, or the next message before any
    /// transfer.
    fn current_names(&self) -> (u64, u32) {
        self.transfer
            .as_ref()
            .map_or((self.next_msg_id, 0), |t| (t.msg_id, t.id()))
    }

    /// The liveness bound tripped on a transfer: evict the stragglers
    /// gating it (when configured) or abandon the message with a typed
    /// error. Either way the sender keeps making progress.
    fn give_up(&mut self, which: Which, now: Time) {
        let t = self.tref(which).expect("transfer exists");
        let tid = t.id();
        let error = if self.cfg.liveness.evict_stragglers {
            let laggards = t.release.laggard_ranks();
            if !laggards.is_empty() && laggards.len() < t.release.n_active() {
                let named = (t.msg_id, tid);
                self.evict(now, &laggards, named);
                return;
            }
            // Nobody identifiable to blame, or eviction would empty the
            // group: nothing left to deliver to.
            SessionError::AllReceiversEvicted { transfer: tid }
        } else {
            SessionError::RetryLimitExceeded {
                transfer: tid,
                timeouts: t.streak,
            }
        };
        self.fail_message(which, now, error);
    }

    /// Remove `rank` from in-flight proof obligations, unless it is the
    /// sole remaining acknowledgment source (an empty obligation cannot
    /// release anything; the bounded-retry path resolves that stall).
    fn drop_from_releases(&mut self, rank: Rank) {
        for w in [Which::Cur, Which::Staged] {
            if let Some(t) = self.tmut(w) {
                if t.release.n_active() > 1 {
                    t.release.evict_rank(rank);
                }
            }
        }
    }

    /// Sticky-evict `ranks`, reporting each against `(msg_id, transfer)`.
    /// This is the one way a receiver leaves the group, whatever removed
    /// it: the liveness bound, the failure detector, a voluntary leave or
    /// a spent quarantine budget. Each rank is marked out, resolved from
    /// quarantine, reported, and dropped from both in-flight proof
    /// obligations (a dead peer must gate neither). Then the epoch moves
    /// once for the batch, and both transfers settle against the
    /// survivors.
    fn evict(&mut self, now: Time, ranks: &[Rank], (msg_id, transfer): (u64, u32)) {
        for &rank in ranks {
            debug_assert!(!self.members.is_evicted(rank.receiver_index()));
            self.members.mark_out(rank.receiver_index());
            self.quarantine.resolve(rank, now, io!(self));
            self.stats.evictions += 1;
            self.tracer.emit(
                now.as_nanos(),
                TraceEvent::Evicted {
                    peer: rank.0,
                    transfer,
                },
            );
            self.events
                .push_back(AppEvent::ReceiverEvicted { msg_id, rank });
            self.drop_from_releases(rank);
        }
        self.members.announce_change(now, io!(self));
        self.settle(now);
    }

    /// Admission request (first join or rejoin after eviction/restart).
    fn on_join(&mut self, now: Time, rank: Rank) {
        if !self.members.enabled() || rank.is_sender() || !self.group.contains(rank) {
            return;
        }
        if self.members.join(rank, io!(self)) {
            // A member we believed active restarted: its receive state is
            // gone, so any quarantine catch-up aimed at the old incarnation
            // is moot, and the in-flight transfers stop waiting for it.
            self.quarantine.forget(rank);
            self.drop_from_releases(rank);
            self.settle(now);
        }
        self.try_admit(now);
    }

    /// Voluntary departure: sticky eviction with an immediate epoch bump.
    fn on_leave(&mut self, now: Time, rank: Rank) {
        if !self.members.enabled() || rank.is_sender() || !self.group.contains(rank) {
            return;
        }
        if self.members.leave(rank) {
            self.evict(now, &[rank], self.current_names());
        }
    }

    /// A receiver's heartbeat reply: proof of life (or an implicit rejoin
    /// request when it comes from a non-member).
    fn on_heartbeat(&mut self, now: Time, rank: Rank, epoch: u32) {
        self.stats.heartbeats_received += 1;
        if !self.members.enabled() || rank.is_sender() || !self.group.contains(rank) {
            return;
        }
        self.accept_member_traffic(now, rank, Some(epoch));
    }

    /// One heartbeat period elapsed: announce, score every member, and
    /// evict those the detector gave up on.
    fn heartbeat_tick(&mut self, now: Time) {
        let busy = self.transfer.is_some() || self.staged.is_some() || !self.queue.is_empty();
        let silent = self.members.tick(now, busy, io!(self));
        if !silent.is_empty() {
            self.evict(now, &silent, self.current_names());
        }
    }

    /// Admit pending joiners, provided the sender sits at a message
    /// boundary (nothing current, nothing staged).
    fn try_admit(&mut self, now: Time) {
        if self.transfer.is_some() || self.staged.is_some() {
            return;
        }
        let next_msg = self.queue.front().map_or(self.next_msg_id, |&(id, _)| id);
        self.members
            .admit(now, next_msg, self.tree.as_ref(), io!(self));
    }

    /// Re-evaluate both in-flight transfers against their (possibly just
    /// shrunk) proof obligations: release what the survivors cover,
    /// finish what is fully released, refill the window.
    fn settle(&mut self, now: Time) {
        let base_rto = self.cfg.rto;
        // Staged first: `finish_transfer` on the current message promotes
        // the staged one and expects its completion already recorded.
        if let Some(t) = self.tmut(Which::Staged) {
            t.release_to(t.release.released().min(t.win.k()), base_rto);
        }
        if let Some(t) = self.transfer.as_mut() {
            if t.release_to(t.release.released().min(t.win.k()), base_rto) {
                let (tid, new_base) = (t.id(), t.win.base());
                self.tracer.emit(
                    now.as_nanos(),
                    TraceEvent::WindowRelease {
                        transfer: tid,
                        base: new_base,
                    },
                );
            }
            if self.current_complete() {
                self.finish_transfer(now);
            } else {
                self.pump(now);
            }
        }
    }

    /// Abandon a message with a typed error and move on to the next.
    fn fail_message(&mut self, which: Which, now: Time, error: SessionError) {
        self.stats.messages_failed += 1;
        if let Some(dump) = self.tracer.flight_dump(
            now.as_nanos(),
            &format!("sender abandoned message: {error:?}"),
            self.stats.snapshot(),
        ) {
            self.events.push_back(AppEvent::FlightRecorderDump { dump });
        }
        match which {
            Which::Cur => {
                let msg_id = self
                    .transfer
                    .take()
                    .expect("failing without a transfer")
                    .msg_id;
                self.events
                    .push_back(AppEvent::MessageFailed { msg_id, error });
                self.close_message(now, msg_id);
            }
            Which::Staged => {
                let st = self.staged.take().expect("staged exists");
                self.events.push_back(AppEvent::MessageFailed {
                    msg_id: st.msg_id,
                    error,
                });
                self.maybe_stage_next(now);
            }
        }
    }

    /// A congestion signal (retransmission timeout or fresh NAK) on the
    /// current transfer: the AIMD cap halves.
    fn congestion(&mut self, now: Time, transfer_id: u32) {
        let cap = self.overload.on_congestion(now, transfer_id, io!(self));
        self.hold_window(cap);
    }

    /// Hold the current data window to an AIMD cap. The window clamps to
    /// its occupancy, so a shrink takes full effect as in-flight packets
    /// drain; applying it after releases re-tightens.
    fn hold_window(&mut self, cap: Option<u32>) {
        if let (Some(cap), Some(t)) = (cap, self.transfer.as_mut()) {
            t.win.set_cap(cap);
        }
    }

    /// Move the laggards gating the current data transfer into quarantine
    /// once its stall streak reaches `quarantine_after`: they stop gating
    /// the window and are served bounded catch-up retransmissions off the
    /// critical path instead. Returns `true` when anyone moved (the
    /// release was re-settled; skip this round's group retransmission).
    fn maybe_quarantine(&mut self, now: Time) -> bool {
        // Only a data transfer has payload worth catching up on; an alloc
        // round trip resolves through the liveness path.
        let Some(t) = self
            .transfer
            .as_ref()
            .filter(|t| self.quarantine.is_due(t.streak) && t.phase == Phase::Data)
        else {
            return false;
        };
        let mut laggards = t.release.laggard_ranks();
        if laggards.is_empty() || laggards.len() >= t.release.n_active() {
            // Nobody identifiable, or quarantining would empty the proof
            // obligation: let the liveness path resolve the stall.
            return false;
        }
        let (tid, horizon) = (t.id(), t.release.released().min(t.win.k()));
        self.quarantine
            .enter(now, tid, horizon, &mut laggards, io!(self));
        if laggards.is_empty() {
            return false;
        }
        // Off the critical path: neither in-flight transfer waits on them
        // any longer (non-sticky — they are still members).
        for &rank in &laggards {
            self.drop_from_releases(rank);
        }
        if let Some(t) = self.transfer.as_mut() {
            t.streak = 0;
            t.cur_rto = self.cfg.rto;
        }
        self.settle(now);
        true
    }

    /// Serve each quarantined receiver's due catch-up round: a small
    /// unicast batch of retransmissions from its horizon. A receiver whose
    /// budget is spent is resolved through the liveness path — eviction
    /// when configured, otherwise the message fails with a typed error.
    fn quarantine_catchup(&mut self, now: Time) {
        for idx in 0..self.quarantine.len() {
            // Re-fetch per receiver: a resolution may end the message.
            let Some((tid, next)) = self.transfer.as_ref().map(|t| (t.id(), t.win.next())) else {
                return;
            };
            let rank = Rank::from_receiver_index(idx);
            match self.quarantine.round(idx, tid, next, now) {
                None => {}
                Some(Round::Serve(seqs)) => {
                    for seq in seqs {
                        self.emit_data(Which::Cur, seq, true, Dest::Rank(rank));
                        self.stats.catchup_retx_sent += 1;
                    }
                }
                Some(Round::Spent) => {
                    let Some((transfer, rounds)) = self.quarantine.resolve(rank, now, io!(self))
                    else {
                        continue;
                    };
                    if self.cfg.liveness.evict_stragglers {
                        self.evict(now, &[rank], self.current_names());
                    } else {
                        let error = SessionError::RetryLimitExceeded {
                            transfer,
                            timeouts: rounds,
                        };
                        self.fail_message(Which::Cur, now, error);
                    }
                }
            }
        }
    }
}

impl Sender {
    /// Audit every sender-side invariant (`S1`…`S8` in
    /// [`crate::invariants`]) against the current state, recomputing the
    /// release rules from first principles. Cheap enough to run per
    /// driver call; under `debug_assertions` the engine does exactly that.
    pub fn audit(&self) -> Result<(), Vec<crate::invariants::Violation>> {
        use crate::invariants::Audit;
        let mut a = Audit::new();
        if let Some(tree) = &self.tree {
            a.check("S5", tree.check());
        }
        let fec_family = matches!(self.cfg.kind, ProtocolKind::Fec { .. });
        for (which, label) in [(Which::Cur, "current"), (Which::Staged, "staged")] {
            let Some(t) = self.tref(which) else { continue };
            let id = t.id();
            a.check(
                "S1",
                t.win
                    .check()
                    .map_err(|e| format!("{label} transfer {id}: {e}")),
            );
            t.release.audit(&mut a, t.win.base(), label, id);
            let fec_data = fec_family && t.phase == Phase::Data;
            a.require("S8", t.fec.is_some() == fec_data, || {
                format!("{label} transfer {id}: coding state present iff a fec data transfer")
            });
            if let Some(f) = &t.fec {
                f.audit(&mut a);
            }
            if t.phase == Phase::Alloc {
                a.require("S6", t.win.k() == 1, || {
                    format!(
                        "{label} allocation transfer {id} spans {} packets",
                        t.win.k()
                    )
                });
            }
        }
        self.quarantine.audit(&mut a, &self.members);
        a.finish()
    }

    /// Hash the protocol-logical state into `h`: everything that shapes
    /// future behavior *except* clocks, retry streaks and counters.
    /// `rmcheck explore` merges interleavings whose digests converge, which
    /// is sound exactly because the model configurations zero the
    /// time-sensitive knobs (suppression windows, backoff).
    pub fn hash_protocol_state(&self, h: &mut dyn std::hash::Hasher) {
        h.write_u64(self.next_msg_id);
        h.write_usize(self.queue.len());
        for (which, held) in [(Which::Cur, &self.transfer), (Which::Staged, &self.staged)] {
            let Some(t) = held else {
                h.write_u8(0);
                continue;
            };
            h.write_u8(1);
            h.write_u64(t.msg_id);
            h.write_u8(matches!(t.phase, Phase::Data) as u8);
            // A staged allocation every receiver acknowledged is its
            // message alone: what its window and release rule held no
            // longer shapes anything.
            match self.tref(which) {
                None => h.write_u8(0),
                Some(t) => {
                    h.write_u8(1);
                    h.write_u32(t.win.k());
                    h.write_u32(t.win.base());
                    h.write_u32(t.win.next());
                    t.release.hash_into(h);
                    if let Some(f) = &t.fec {
                        f.hash_into(h);
                    }
                }
            }
        }
        self.members.hash_into(h);
        self.overload.hash_into(h);
        self.quarantine.hash_into(h);
        h.write_usize(self.out.len());
        h.write_usize(self.events.len());
    }

    /// Panic on any violated invariant. Compiled only under
    /// `debug_assertions`, so every debug-profile test (sim, chaos, fuzz,
    /// soak) doubles as an invariant audit while release figures stay
    /// byte-identical.
    #[cfg(debug_assertions)]
    fn debug_audit(&self) {
        if let Err(v) = self.audit() {
            panic!(
                "sender invariant violation: {}",
                crate::invariants::render(&v)
            );
        }
    }
}

impl Endpoint for Sender {
    fn handle_datagram(&mut self, now: Time, datagram: &[u8]) {
        self.now_cache = self.now_cache.max(now);
        let pkt = match Packet::parse_checked(datagram, self.cfg.integrity) {
            Ok(p) => p,
            Err(e) => return endpoint::undecodable(now, e, io!(self)),
        };
        let Packet { header, body } = pkt;
        let from = header.src_rank;
        match body {
            Body::Ack {
                next_expected,
                epoch,
            } => self.on_ack(now, from, header.transfer, next_expected.0, epoch),
            Body::Nak { expected, epoch } => {
                self.on_nak(now, from, header.transfer, expected.0, epoch)
            }
            Body::Join { .. } => self.on_join(now, from),
            Body::Leave { .. } => self.on_leave(now, from),
            Body::Heartbeat { epoch } => self.on_heartbeat(now, from, epoch),
            Body::Data(_)
            | Body::Alloc(_)
            | Body::Welcome { .. }
            | Body::Sync(_)
            | Body::Coded { .. } => {
                // Data (or echoed sender-side control) flowing toward the
                // sender is not expected; ignore.
                self.stats.data_discarded += 1;
            }
        }
        #[cfg(debug_assertions)]
        self.debug_audit();
    }

    fn handle_timeout(&mut self, now: Time) {
        self.now_cache = self.now_cache.max(now);
        // Pacing wake-up: just refill the window.
        if self.pace_deadline().is_some_and(|d| d <= now) {
            self.pump(now);
        }
        // Heartbeat schedule: announce, score misses, evict the silent.
        if self.members.deadline().is_some_and(|d| d <= now) {
            self.heartbeat_tick(now);
        }
        // Quarantined receivers: serve any due catch-up rounds.
        self.quarantine_catchup(now);
        // The fec aggregation window: flush coded repairs when due.
        self.fec_flush(now);
        let liveness = self.cfg.liveness;
        for which in [Which::Cur, Which::Staged] {
            let Some(t) = self.tref(which) else { continue };
            let deadline = t.win.earliest_deadline(t.cur_rto);
            if deadline.is_none_or(|d| d > now) {
                continue;
            }
            self.stats.timeouts += 1;
            let (tid, streak, rto) = {
                let t = self.tmut(which).expect("transfer exists");
                t.streak += 1;
                (t.id(), t.streak, t.cur_rto)
            };
            self.tracer.emit(
                now.as_nanos(),
                TraceEvent::TimeoutFired {
                    transfer: tid,
                    streak,
                    rto_ns: rto.as_nanos(),
                },
            );
            if which == Which::Cur {
                // A retransmission timeout is a congestion signal.
                self.congestion(now, tid);
                if self.maybe_quarantine(now) {
                    // The laggards gating the window moved to quarantine
                    // and the release re-settled; no group retransmission
                    // this round.
                    continue;
                }
            }
            if liveness.max_retx.is_some_and(|m| streak > m) {
                // The retry budget is spent: resolve the stall instead of
                // retransmitting into the void forever.
                self.give_up(which, now);
                continue;
            }
            // Go-Back-N resends the whole window; selective repeat, with
            // per-packet timers, every expired outstanding packet.
            let t = self.tref(which).expect("transfer exists");
            match self.cfg.discipline {
                WindowDiscipline::GoBackN => {
                    let seqs = t.win.base()..t.win.next();
                    self.retransmit(which, now, seqs, Dest::Receivers);
                }
                WindowDiscipline::SelectiveRepeat => {
                    let seqs = t.win.expired(now, rto);
                    self.retransmit(which, now, seqs, Dest::Receivers);
                }
            }
            // Exponential backoff for a bounded sender: each consecutive
            // timeout doubles the effective RTO up to the ceiling
            // (progress resets it).
            if liveness.max_retx.is_some() {
                let ceil_ns = RTO_MAX.as_nanos().max(self.cfg.rto.as_nanos());
                if let Some(t) = self.tmut(which) {
                    let next_ns = rto.as_nanos().saturating_mul(2);
                    t.cur_rto = Duration::from_nanos(next_ns.min(ceil_ns));
                }
            }
        }
        #[cfg(debug_assertions)]
        self.debug_audit();
    }

    fn poll_timeout(&self) -> Option<Time> {
        [
            self.transfer
                .as_ref()
                .and_then(|t| t.win.earliest_deadline(t.cur_rto)),
            self.tref(Which::Staged)
                .and_then(|t| t.win.earliest_deadline(t.cur_rto)),
            self.pace_deadline(),
            self.members.deadline(),
            self.transfer
                .as_ref()
                .and_then(|t| self.quarantine.deadline(t.id())),
            self.transfer
                .as_ref()
                .and_then(|t| t.fec.as_ref()?.deadline()),
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

    fn is_idle(&self) -> bool {
        self.transfer.is_none()
            && self.staged.is_none()
            && self.queue.is_empty()
            && self.out.is_empty()
    }

    fn set_trace_sink(&mut self, sink: Box<dyn rmtrace::TraceSink>) {
        self.tracer.set_sink(sink);
    }

    fn enable_flight_recorder(&mut self, cap: usize) {
        self.tracer.enable_flight_recorder(cap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::encode_ack;

    fn cfg(kind: ProtocolKind) -> ProtocolConfig {
        ProtocolConfig::new(kind, 100, 4)
    }

    fn drain(s: &mut Sender) -> Vec<Transmit> {
        std::iter::from_fn(|| s.poll_transmit()).collect()
    }

    fn ack(s: &mut Sender, now: Time, rank: Rank, transfer: u32, ne: u32) {
        let p = encode_ack(rank, transfer, SeqNo(ne));
        s.handle_datagram(now, &p);
    }

    #[test]
    fn handshake_sends_alloc_first() {
        let mut s = Sender::new(cfg(ProtocolKind::Ack), GroupSpec::new(2));
        s.send_message(Time::ZERO, Bytes::from(vec![1u8; 350]));
        let out = drain(&mut s);
        assert_eq!(out.len(), 1, "only the alloc request until it is acked");
        match Packet::parse(&out[0].payload).unwrap() {
            Packet {
                header,
                body: Body::Alloc(body),
            } => {
                assert_eq!(header.transfer, 0);
                assert_eq!(body.msg_len, 350);
                assert_eq!(body.data_transfer, 1);
                assert_eq!(body.packet_size, 100);
                assert!(header.flags.contains(PacketFlags::LAST));
            }
            other => panic!("expected alloc, got {other:?}"),
        }
    }

    #[test]
    fn transfer_ids_wrap_the_same_in_every_build() {
        assert_eq!(Sender::alloc_transfer_id(1 << 31), 0);
        assert_eq!(Sender::data_transfer_id(1 << 31), 1);
        assert_eq!(Sender::data_transfer_id((1 << 31) - 1), u32::MAX);
    }

    #[test]
    fn data_flows_after_alloc_acked() {
        let mut s = Sender::new(cfg(ProtocolKind::Ack), GroupSpec::new(2));
        s.send_message(Time::ZERO, Bytes::from(vec![7u8; 350]));
        let _ = drain(&mut s);
        ack(&mut s, Time::ZERO, Rank(1), 0, 1);
        assert!(drain(&mut s).is_empty(), "one ack is not enough");
        ack(&mut s, Time::ZERO, Rank(2), 0, 1);
        let out = drain(&mut s);
        // 350 bytes / 100 = 4 packets, window 4: all in flight.
        assert_eq!(out.len(), 4);
        match Packet::parse(&out[3].payload).unwrap() {
            Packet {
                header,
                body: Body::Data(body),
            } => {
                assert_eq!(header.transfer, 1);
                assert_eq!(header.seq, SeqNo(3));
                assert!(header.flags.contains(PacketFlags::LAST));
                assert_eq!(body.len(), 50, "tail packet carries the remainder");
            }
            other => panic!("expected data, got {other:?}"),
        }
    }

    #[test]
    fn ack_protocol_completes_message() {
        let mut s = Sender::new(cfg(ProtocolKind::Ack), GroupSpec::new(2));
        let id = s.send_message(Time::ZERO, Bytes::from(vec![7u8; 350]));
        assert_eq!(id, 0);
        let _ = drain(&mut s);
        for r in [1u16, 2] {
            ack(&mut s, Time::ZERO, Rank(r), 0, 1);
        }
        let _ = drain(&mut s);
        for r in [1u16, 2] {
            ack(&mut s, Time::ZERO, Rank(r), 1, 4);
        }
        assert_eq!(s.poll_event(), Some(AppEvent::MessageSent { msg_id: 0 }));
        assert!(s.is_idle());
        assert_eq!(s.stats().messages_completed, 1);
    }

    #[test]
    fn window_gates_transmission() {
        let mut c = cfg(ProtocolKind::Ack);
        c.window = 2;
        c.handshake = false;
        let mut s = Sender::new(c, GroupSpec::new(1));
        s.send_message(Time::ZERO, Bytes::from(vec![1u8; 1000])); // 10 packets
        assert_eq!(drain(&mut s).len(), 2);
        ack(&mut s, Time::ZERO, Rank(1), 1, 1);
        assert_eq!(drain(&mut s).len(), 1, "one release, one refill");
        ack(&mut s, Time::ZERO, Rank(1), 1, 3);
        assert_eq!(drain(&mut s).len(), 2);
    }

    #[test]
    fn poll_flags_follow_interval() {
        let mut c = cfg(ProtocolKind::nak_polling(3));
        c.handshake = false;
        c.window = 4;
        let mut s = Sender::new(c, GroupSpec::new(1));
        s.send_message(Time::ZERO, Bytes::from(vec![1u8; 400])); // 4 packets
        let out = drain(&mut s);
        let polled: Vec<bool> = out
            .iter()
            .map(|t| {
                Packet::parse(&t.payload)
                    .unwrap()
                    .header
                    .flags
                    .contains(PacketFlags::POLL)
            })
            .collect();
        // Interval 3: seq 2 polled; seq 3 polled because LAST.
        assert_eq!(polled, vec![false, false, true, true]);
    }

    #[test]
    fn timeout_triggers_gbn_retransmission() {
        let mut c = cfg(ProtocolKind::Ack);
        c.handshake = false;
        c.window = 3;
        let mut s = Sender::new(c, GroupSpec::new(1));
        s.send_message(Time::ZERO, Bytes::from(vec![1u8; 300]));
        assert_eq!(drain(&mut s).len(), 3);
        let deadline = s.poll_timeout().expect("armed");
        assert_eq!(deadline, Time::ZERO + c.rto);
        s.handle_timeout(deadline);
        let retx = drain(&mut s);
        assert_eq!(retx.len(), 3, "Go-Back-N resends the whole window");
        assert!(retx.iter().all(|t| {
            Packet::parse(&t.payload)
                .unwrap()
                .header
                .flags
                .contains(PacketFlags::RETX)
        }));
        assert_eq!(s.stats().retx_sent, 3);
        assert_eq!(s.stats().timeouts, 1);
    }

    #[test]
    fn suppression_limits_retransmissions() {
        let mut c = cfg(ProtocolKind::Ack);
        c.handshake = false;
        let mut s = Sender::new(c, GroupSpec::new(1));
        s.send_message(Time::ZERO, Bytes::from(vec![1u8; 100]));
        let _ = drain(&mut s);
        // Two NAKs in quick succession: only one retransmission.
        let nak = packet::nak(Rank(1), 1, SeqNo(0), None);
        s.handle_datagram(Time::from_millis(100), &nak);
        s.handle_datagram(Time::from_millis(100), &nak);
        assert_eq!(drain(&mut s).len(), 1);
        assert_eq!(s.stats().retx_suppressed, 1);
    }

    #[test]
    fn ring_release_needs_window_beyond_group() {
        let n = 3u16;
        let mut c = ProtocolConfig::new(ProtocolKind::Ring, 100, 5);
        c.handshake = false;
        let mut s = Sender::new(c, GroupSpec::new(n));
        s.send_message(Time::ZERO, Bytes::from(vec![1u8; 1000])); // 10 packets
        assert_eq!(drain(&mut s).len(), 5);
        // Token acks for packets 0..3 release packet 0 only (prefix 4 - N).
        ack(&mut s, Time::ZERO, Rank(1), 1, 1);
        ack(&mut s, Time::ZERO, Rank(2), 1, 2);
        ack(&mut s, Time::ZERO, Rank(3), 1, 3);
        assert!(drain(&mut s).is_empty());
        ack(&mut s, Time::ZERO, Rank(1), 1, 4);
        assert_eq!(drain(&mut s).len(), 1, "packet 0 released, packet 5 sent");
    }

    #[test]
    fn tree_sender_listens_only_to_roots() {
        let mut c = ProtocolConfig::new(ProtocolKind::flat_tree(2), 100, 4);
        c.handshake = false;
        // 4 receivers, H=2: roots are ranks 1 and 3.
        let mut s = Sender::new(c, GroupSpec::new(4));
        s.send_message(Time::ZERO, Bytes::from(vec![1u8; 200]));
        let _ = drain(&mut s);
        // Acks from non-roots must not release anything.
        ack(&mut s, Time::ZERO, Rank(2), 1, 2);
        ack(&mut s, Time::ZERO, Rank(4), 1, 2);
        assert!(s.poll_event().is_none());
        ack(&mut s, Time::ZERO, Rank(1), 1, 2);
        assert!(s.poll_event().is_none());
        ack(&mut s, Time::ZERO, Rank(3), 1, 2);
        assert_eq!(s.poll_event(), Some(AppEvent::MessageSent { msg_id: 0 }));
    }

    #[test]
    fn stale_and_foreign_packets_ignored() {
        let mut c = cfg(ProtocolKind::Ack);
        c.handshake = false;
        let mut s = Sender::new(c, GroupSpec::new(1));
        s.send_message(Time::ZERO, Bytes::from(vec![1u8; 100]));
        let _ = drain(&mut s);
        // Wrong transfer id.
        ack(&mut s, Time::ZERO, Rank(1), 99, 1);
        // Out-of-group rank.
        ack(&mut s, Time::ZERO, Rank(7), 1, 1);
        // Sender rank.
        ack(&mut s, Time::ZERO, Rank(0), 1, 1);
        assert!(s.poll_event().is_none());
        // Garbage datagram.
        s.handle_datagram(Time::ZERO, &[1, 2, 3]);
        assert_eq!(s.stats().decode_errors, 1);
        // The real ack completes it.
        ack(&mut s, Time::ZERO, Rank(1), 1, 1);
        assert_eq!(s.poll_event(), Some(AppEvent::MessageSent { msg_id: 0 }));
    }

    #[test]
    fn messages_queue_fifo() {
        let mut c = cfg(ProtocolKind::Ack);
        c.handshake = false;
        let mut s = Sender::new(c, GroupSpec::new(1));
        let a = s.send_message(Time::ZERO, Bytes::from(vec![1u8; 100]));
        let b = s.send_message(Time::ZERO, Bytes::from(vec![2u8; 100]));
        assert_eq!((a, b), (0, 1));
        assert_eq!(s.in_flight(), 2);
        let out = drain(&mut s);
        assert_eq!(out.len(), 1, "second message waits");
        ack(&mut s, Time::ZERO, Rank(1), 1, 1);
        assert_eq!(s.poll_event(), Some(AppEvent::MessageSent { msg_id: 0 }));
        let out = drain(&mut s);
        assert_eq!(out.len(), 1);
        assert_eq!(Packet::parse(&out[0].payload).unwrap().header.transfer, 3);
        ack(&mut s, Time::ZERO, Rank(1), 3, 1);
        assert_eq!(s.poll_event(), Some(AppEvent::MessageSent { msg_id: 1 }));
        assert!(s.is_idle());
    }

    #[test]
    fn copy_accounting_respects_flag() {
        let mut c = cfg(ProtocolKind::Ack);
        c.handshake = false;
        let mut s = Sender::new(c, GroupSpec::new(1));
        s.send_message(Time::ZERO, Bytes::from(vec![1u8; 250]));
        let out = drain(&mut s);
        let copied: usize = out.iter().map(|t| t.copied).sum();
        assert_eq!(copied, 250);
        assert_eq!(s.stats().user_copy_bytes, 250);

        let mut c2 = cfg(ProtocolKind::Ack);
        c2.handshake = false;
        c2.charge_copy = false;
        let mut s2 = Sender::new(c2, GroupSpec::new(1));
        s2.send_message(Time::ZERO, Bytes::from(vec![1u8; 250]));
        let out = drain(&mut s2);
        assert_eq!(out.iter().map(|t| t.copied).sum::<usize>(), 0);
    }

    #[test]
    fn backoff_stretches_rto() {
        use crate::config::LivenessConfig;
        let mut c = cfg(ProtocolKind::Ack);
        c.handshake = false;
        c.liveness = LivenessConfig::bounded(10);
        let mut s = Sender::new(c, GroupSpec::new(1));
        s.send_message(Time::ZERO, Bytes::from(vec![1u8; 100]));
        let _ = drain(&mut s);
        let d1 = s.poll_timeout().expect("armed");
        assert_eq!(d1, Time::ZERO + c.rto);
        s.handle_timeout(d1);
        let _ = drain(&mut s);
        let d2 = s.poll_timeout().expect("still armed");
        assert_eq!(
            d2,
            d1 + c.rto.saturating_mul(2),
            "second wait is twice the first"
        );
        s.handle_timeout(d2);
        let _ = drain(&mut s);
        let d3 = s.poll_timeout().expect("still armed");
        assert_eq!(d3, d2 + c.rto.saturating_mul(4));
        // Progress resets the backoff: ack, then send another message.
        ack(&mut s, d3, Rank(1), 1, 1);
        assert_eq!(s.poll_event(), Some(AppEvent::MessageSent { msg_id: 0 }));
        s.send_message(d3, Bytes::from(vec![2u8; 100]));
        let _ = drain(&mut s);
        assert_eq!(
            s.poll_timeout(),
            Some(d3 + c.rto),
            "fresh transfer, base RTO"
        );
    }

    #[test]
    fn bounded_retries_fail_with_typed_error() {
        use crate::config::LivenessConfig;
        use crate::error::SessionError;
        let mut c = cfg(ProtocolKind::Ack);
        c.handshake = false;
        c.liveness = LivenessConfig::bounded(2);
        let mut s = Sender::new(c, GroupSpec::new(1));
        s.send_message(Time::ZERO, Bytes::from(vec![1u8; 100]));
        let _ = drain(&mut s);
        // Nobody ever acknowledges: the sender must stop on its own.
        for _ in 0..10 {
            let Some(d) = s.poll_timeout() else { break };
            s.handle_timeout(d);
            let _ = drain(&mut s);
        }
        assert_eq!(
            s.poll_event(),
            Some(AppEvent::MessageFailed {
                msg_id: 0,
                error: SessionError::RetryLimitExceeded {
                    transfer: 1,
                    timeouts: 3,
                },
            })
        );
        assert!(s.is_idle(), "no retry loop survives the bound");
        assert_eq!(s.stats().messages_failed, 1);
        assert_eq!(
            s.stats().retx_sent,
            2,
            "exactly max_retx retransmission rounds"
        );
    }

    #[test]
    fn eviction_completes_to_survivors() {
        use crate::config::LivenessConfig;
        let mut c = cfg(ProtocolKind::Ack);
        c.handshake = false;
        c.liveness = LivenessConfig::evicting(1);
        let mut s = Sender::new(c, GroupSpec::new(2));
        s.send_message(Time::ZERO, Bytes::from(vec![1u8; 100]));
        let _ = drain(&mut s);
        // Receiver 1 acknowledges; receiver 2 is dead.
        ack(&mut s, Time::ZERO, Rank(1), 1, 1);
        for _ in 0..5 {
            let Some(d) = s.poll_timeout() else { break };
            s.handle_timeout(d);
            let _ = drain(&mut s);
        }
        assert_eq!(
            s.poll_event(),
            Some(AppEvent::ReceiverEvicted {
                msg_id: 0,
                rank: Rank(2)
            })
        );
        assert_eq!(
            s.poll_event(),
            Some(AppEvent::MessageSent { msg_id: 0 }),
            "completes to the surviving receiver"
        );
        assert_eq!(s.stats().evictions, 1);
        // Eviction is sticky: the next message needs only the survivor.
        s.send_message(Time::from_millis(1), Bytes::from(vec![2u8; 100]));
        let _ = drain(&mut s);
        ack(&mut s, Time::from_millis(1), Rank(1), 3, 1);
        assert_eq!(s.poll_event(), Some(AppEvent::MessageSent { msg_id: 1 }));
        assert!(s.is_idle());
    }

    #[test]
    fn evicting_everyone_fails_the_message() {
        use crate::config::LivenessConfig;
        use crate::error::SessionError;
        let mut c = cfg(ProtocolKind::Ack);
        c.handshake = false;
        c.liveness = LivenessConfig::evicting(1);
        let mut s = Sender::new(c, GroupSpec::new(1));
        s.send_message(Time::ZERO, Bytes::from(vec![1u8; 100]));
        let _ = drain(&mut s);
        for _ in 0..5 {
            let Some(d) = s.poll_timeout() else { break };
            s.handle_timeout(d);
            let _ = drain(&mut s);
        }
        assert_eq!(
            s.poll_event(),
            Some(AppEvent::MessageFailed {
                msg_id: 0,
                error: SessionError::AllReceiversEvicted { transfer: 1 },
            })
        );
        assert!(s.is_idle());
    }

    #[test]
    fn ring_eviction_skips_dead_token_site() {
        use crate::config::LivenessConfig;
        let mut c = ProtocolConfig::new(ProtocolKind::Ring, 100, 5);
        c.handshake = false;
        c.liveness = LivenessConfig::evicting(1);
        let mut s = Sender::new(c, GroupSpec::new(3));
        s.send_message(Time::ZERO, Bytes::from(vec![1u8; 300])); // 3 packets
        let _ = drain(&mut s);
        // Receivers 1 and 3 are alive and fully acknowledged (including the
        // LAST packet everyone acks); receiver 2 — token site of packet 1 —
        // is dead, blocking the prefix forever.
        ack(&mut s, Time::ZERO, Rank(1), 1, 3);
        ack(&mut s, Time::ZERO, Rank(3), 1, 3);
        assert!(s.poll_event().is_none());
        for _ in 0..5 {
            let Some(d) = s.poll_timeout() else { break };
            s.handle_timeout(d);
            let _ = drain(&mut s);
        }
        assert_eq!(
            s.poll_event(),
            Some(AppEvent::ReceiverEvicted {
                msg_id: 0,
                rank: Rank(2)
            }),
            "token-pass skip over the dead site"
        );
        assert_eq!(s.poll_event(), Some(AppEvent::MessageSent { msg_id: 0 }));
        assert!(s.is_idle());
    }

    #[test]
    fn empty_message_is_one_empty_packet() {
        let mut c = cfg(ProtocolKind::Ack);
        c.handshake = false;
        let mut s = Sender::new(c, GroupSpec::new(1));
        s.send_message(Time::ZERO, Bytes::new());
        let out = drain(&mut s);
        assert_eq!(out.len(), 1);
        match Packet::parse(&out[0].payload).unwrap() {
            Packet {
                header,
                body: Body::Data(body),
            } => {
                assert!(body.is_empty());
                assert!(header.flags.contains(PacketFlags::LAST));
            }
            other => panic!("{other:?}"),
        }
    }

    fn mcfg(kind: ProtocolKind) -> ProtocolConfig {
        let mut c = cfg(kind);
        c.handshake = false;
        c.membership = true;
        c
    }

    #[test]
    fn stale_epoch_ack_discarded() {
        let mut s = Sender::new(mcfg(ProtocolKind::Ack), GroupSpec::new(1));
        s.send_message(Time::ZERO, Bytes::from(vec![1u8; 100]));
        let _ = drain(&mut s);
        let stale = packet::ack(Rank(1), 1, SeqNo(1), Some(7));
        s.handle_datagram(Time::ZERO, &stale);
        assert_eq!(s.stats().stale_epoch_discarded, 1);
        assert!(
            s.poll_event().is_none(),
            "a stale-epoch ack must not complete the message"
        );
        let fresh = packet::ack(Rank(1), 1, SeqNo(1), Some(1));
        s.handle_datagram(Time::ZERO, &fresh);
        assert_eq!(s.poll_event(), Some(AppEvent::MessageSent { msg_id: 0 }));
    }

    #[test]
    fn heartbeat_detector_evicts_silent_receiver() {
        let mut s = Sender::new(mcfg(ProtocolKind::Ack), GroupSpec::new(2));
        s.send_message(Time::ZERO, Bytes::from(vec![1u8; 100]));
        let out = drain(&mut s);
        assert!(
            out.iter().any(|t| matches!(
                Packet::parse(&t.payload).unwrap().body,
                Body::Heartbeat { .. }
            )),
            "going busy announces a heartbeat"
        );
        // Receiver 1 acknowledges and keeps replying to heartbeats;
        // receiver 2 is silent forever.
        let ack1 = packet::ack(Rank(1), 1, SeqNo(1), Some(1));
        s.handle_datagram(Time::ZERO, &ack1);
        for _ in 0..40 {
            let Some(d) = s.poll_timeout() else { break };
            let reply = packet::encode_membership(PacketType::Heartbeat, Rank(1), s.epoch());
            s.handle_datagram(d, &reply);
            s.handle_timeout(d);
            let _ = drain(&mut s);
        }
        let events: Vec<_> = std::iter::from_fn(|| s.poll_event()).collect();
        assert!(events.contains(&AppEvent::ReceiverEvicted {
            msg_id: 0,
            rank: Rank(2)
        }));
        assert!(events.contains(&AppEvent::MessageSent { msg_id: 0 }));
        assert!(s.is_idle());
        assert_eq!(s.epoch(), 2, "the eviction bumped the epoch");
        assert!(s.stats().suspects >= 1, "suspicion precedes eviction");
        assert!(s.stats().heartbeats_received > 0);
    }

    #[test]
    fn join_admitted_at_message_boundary() {
        let mut s = Sender::new(mcfg(ProtocolKind::Ack), GroupSpec::new(2));
        s.send_message(Time::ZERO, Bytes::from(vec![1u8; 100]));
        let _ = drain(&mut s);
        // Receiver 2 restarts and JOINs mid-message.
        s.handle_datagram(
            Time::ZERO,
            &packet::encode_membership(PacketType::Join, Rank(2), 0),
        );
        let out = drain(&mut s);
        assert!(
            out.iter().any(|t| matches!(
                Packet::parse(&t.payload).unwrap().body,
                Body::Welcome { .. }
            )),
            "a JOIN is answered immediately"
        );
        // Rank 1 alone completes the message (rank 2 is pending, excluded).
        let ack1 = packet::ack(Rank(1), 1, SeqNo(1), Some(1));
        s.handle_datagram(Time::ZERO, &ack1);
        let events: Vec<_> = std::iter::from_fn(|| s.poll_event()).collect();
        assert!(events.contains(&AppEvent::MessageSent { msg_id: 0 }));
        assert!(events.contains(&AppEvent::ReceiverJoined {
            rank: Rank(2),
            epoch: 2
        }));
        let out = drain(&mut s);
        let sync = out
            .iter()
            .find_map(|t| match Packet::parse(&t.payload).unwrap().body {
                Body::Sync(sync) => Some(sync),
                _ => None,
            })
            .expect("SYNC handed off at the boundary");
        assert_eq!(sync.epoch, 2);
        assert_eq!(sync.next_msg, 1, "first message the joiner must handle");
        assert_eq!(s.stats().joins, 1);
        // The next message waits for both receivers again.
        s.send_message(Time::from_millis(1), Bytes::from(vec![2u8; 100]));
        let _ = drain(&mut s);
        let a1 = packet::ack(Rank(1), 3, SeqNo(1), Some(2));
        s.handle_datagram(Time::from_millis(1), &a1);
        assert!(
            s.poll_event().is_none(),
            "the rejoined receiver gates the release again"
        );
        let a2 = packet::ack(Rank(2), 3, SeqNo(1), Some(2));
        s.handle_datagram(Time::from_millis(1), &a2);
        assert_eq!(s.poll_event(), Some(AppEvent::MessageSent { msg_id: 1 }));
    }

    #[test]
    fn evicted_member_traffic_is_an_implicit_rejoin() {
        use crate::config::LivenessConfig;
        let mut c = mcfg(ProtocolKind::Ack);
        c.liveness = LivenessConfig::evicting(1);
        let mut s = Sender::new(c, GroupSpec::new(2));
        s.send_message(Time::ZERO, Bytes::from(vec![1u8; 100]));
        let _ = drain(&mut s);
        let ack1 = packet::ack(Rank(1), 1, SeqNo(1), Some(1));
        s.handle_datagram(Time::ZERO, &ack1);
        for _ in 0..12 {
            let Some(d) = s.poll_timeout() else { break };
            let reply = packet::encode_membership(PacketType::Heartbeat, Rank(1), s.epoch());
            s.handle_datagram(d, &reply);
            s.handle_timeout(d);
            let _ = drain(&mut s);
        }
        let events: Vec<_> = std::iter::from_fn(|| s.poll_event()).collect();
        assert!(events.contains(&AppEvent::ReceiverEvicted {
            msg_id: 0,
            rank: Rank(2)
        }));
        let epoch = s.epoch();
        // The evicted receiver reappears, echoing the epoch it overheard:
        // that is an implicit rejoin request, admitted on the spot (the
        // sender is at a message boundary).
        let reply = packet::encode_membership(PacketType::Heartbeat, Rank(2), epoch);
        s.handle_datagram(Time::from_millis(500), &reply);
        assert_eq!(
            s.poll_event(),
            Some(AppEvent::ReceiverJoined {
                rank: Rank(2),
                epoch: epoch + 1
            })
        );
    }

    #[test]
    fn leave_evicts_immediately() {
        let mut s = Sender::new(mcfg(ProtocolKind::Ack), GroupSpec::new(2));
        s.send_message(Time::ZERO, Bytes::from(vec![1u8; 100]));
        let _ = drain(&mut s);
        let ack1 = packet::ack(Rank(1), 1, SeqNo(1), Some(1));
        s.handle_datagram(Time::ZERO, &ack1);
        s.handle_datagram(
            Time::ZERO,
            &packet::encode_membership(PacketType::Leave, Rank(2), 1),
        );
        let events: Vec<_> = std::iter::from_fn(|| s.poll_event()).collect();
        assert!(events.contains(&AppEvent::ReceiverEvicted {
            msg_id: 0,
            rank: Rank(2)
        }));
        assert!(
            events.contains(&AppEvent::MessageSent { msg_id: 0 }),
            "the departure unblocks the survivors"
        );
        assert_eq!(s.epoch(), 2);
        assert_eq!(s.stats().evictions, 1);
    }

    /// Drive `s` through `ticks` heartbeat ticks (its retransmission
    /// timeouts fire in between): each tick must re-arm the next.
    fn tick_through(s: &mut Sender, ticks: u64) {
        let last = s.stats().heartbeats_sent + ticks;
        for _ in 0..1_000 {
            if s.stats().heartbeats_sent == last {
                return;
            }
            let d = s
                .poll_timeout()
                .expect("the heartbeat schedule stays armed");
            s.handle_timeout(d);
            let _ = drain(s);
        }
        panic!("the heartbeat schedule stopped ticking");
    }

    #[test]
    fn heartbeat_tick_after_the_only_receiver_restarts_evicts_nobody() {
        let mut s = Sender::new(mcfg(ProtocolKind::Ack), GroupSpec::new(1));
        s.send_message(Time::ZERO, Bytes::from(vec![1u8; 100]));
        let _ = drain(&mut s);
        // The only receiver restarts mid-transfer: it awaits readmission,
        // so no member is live when the detector next ticks.
        s.handle_datagram(
            Time::ZERO,
            &packet::encode_membership(PacketType::Join, Rank(1), 0),
        );
        let _ = drain(&mut s);
        tick_through(&mut s, 8);
        assert_eq!(s.stats().evictions, 0, "nobody left to evict");
        assert!(!s.is_idle(), "the message still waits for its receiver");
    }

    #[test]
    fn heartbeat_tick_after_every_receiver_left_evicts_nobody() {
        let mut s = Sender::new(mcfg(ProtocolKind::Ack), GroupSpec::new(2));
        s.send_message(Time::ZERO, Bytes::from(vec![1u8; 100]));
        let _ = drain(&mut s);
        s.handle_datagram(
            Time::ZERO,
            &packet::encode_membership(PacketType::Leave, Rank(1), 1),
        );
        s.handle_datagram(
            Time::ZERO,
            &packet::encode_membership(PacketType::Leave, Rank(2), 2),
        );
        assert_eq!(s.stats().evictions, 2);
        assert_eq!(s.epoch(), 3);
        let _ = drain(&mut s);
        tick_through(&mut s, 8);
        assert_eq!(s.stats().evictions, 2, "the ticks evicted nobody more");
        assert_eq!(s.epoch(), 3);
    }
}

#[cfg(test)]
mod overload_tests {
    use super::*;
    use crate::config::LivenessConfig;
    use crate::overload::OverloadConfig;
    use crate::packet::{encode_ack, nak};

    fn ocfg(kind: ProtocolKind) -> ProtocolConfig {
        let mut c = ProtocolConfig::new(kind, 100, 4);
        c.handshake = false;
        c.overload = OverloadConfig::adaptive(c.window);
        c
    }

    fn drain(s: &mut Sender) -> Vec<Transmit> {
        std::iter::from_fn(|| s.poll_transmit()).collect()
    }

    fn events(s: &mut Sender) -> Vec<AppEvent> {
        std::iter::from_fn(|| s.poll_event()).collect()
    }

    fn ack(s: &mut Sender, now: Time, rank: Rank, transfer: u32, ne: u32) {
        s.handle_datagram(now, &encode_ack(rank, transfer, SeqNo(ne)));
    }

    #[test]
    fn timeout_shrinks_window_and_acks_regrow_it() {
        let mut c = ocfg(ProtocolKind::Ack);
        c.liveness = LivenessConfig::bounded(10);
        let mut s = Sender::new(c, GroupSpec::new(1));
        // 7 packets, window 4: the window fills.
        s.send_message(Time::ZERO, Bytes::from(vec![1u8; 650]));
        let _ = drain(&mut s);
        let d = s.poll_timeout().expect("armed");
        s.handle_timeout(d);
        let _ = drain(&mut s);
        assert_eq!(s.stats().window_shrinks, 1, "timeout halves the cap");
        // Acknowledge what is outstanding, let the pump refill, and finish:
        // the transfer completes and the acked progress earns growth credit.
        ack(&mut s, d, Rank(1), 1, 4);
        let _ = drain(&mut s);
        ack(&mut s, d, Rank(1), 1, 7);
        assert!(events(&mut s).contains(&AppEvent::MessageSent { msg_id: 0 }));
        assert!(
            s.stats().window_grows >= 1,
            "acked progress regrows the cap"
        );
    }

    #[test]
    fn duplicate_naks_collapse_to_one_loss_signal() {
        let mut s = Sender::new(ocfg(ProtocolKind::Ack), GroupSpec::new(2));
        s.send_message(Time::ZERO, Bytes::from(vec![1u8; 350]));
        let _ = drain(&mut s);
        let now = Time::from_millis(1);
        for _ in 0..3 {
            s.handle_datagram(now, &nak(Rank(2), 1, SeqNo(1), None));
        }
        assert_eq!(s.stats().naks_received, 3);
        assert_eq!(s.stats().naks_collapsed, 2, "storm collapsed");
        assert_eq!(s.stats().window_shrinks, 1, "one loss signal, not three");
    }

    #[test]
    fn feedback_storm_is_shed_but_completion_acks_pass() {
        let mut c = ocfg(ProtocolKind::Ack);
        c.overload.feedback_rate = 1; // no meaningful refill at test timescales
        c.overload.feedback_burst = 2;
        let mut s = Sender::new(c, GroupSpec::new(2));
        s.send_message(Time::ZERO, Bytes::from(vec![1u8; 350]));
        let _ = drain(&mut s);
        let now = Time::from_millis(1);
        // Burst of partial ACKs: two admitted (burst), the rest shed.
        for _ in 0..5 {
            ack(&mut s, now, Rank(1), 1, 1);
        }
        assert_eq!(s.stats().acks_shed, 3);
        // Completion ACKs bypass the shedder: the transfer still finishes.
        ack(&mut s, now, Rank(1), 1, 4);
        ack(&mut s, now, Rank(2), 1, 4);
        assert!(events(&mut s).contains(&AppEvent::MessageSent { msg_id: 0 }));
    }

    #[test]
    fn slow_receiver_quarantines_catches_up_and_rejoins() {
        let mut c = ocfg(ProtocolKind::Ack);
        c.liveness = LivenessConfig::bounded(20);
        c.overload.quarantine_after = Some(2);
        let mut s = Sender::new(c, GroupSpec::new(2));
        s.send_message(Time::ZERO, Bytes::from(vec![1u8; 350]));
        let _ = drain(&mut s);
        // Rank 1 is current; rank 2 never acknowledges fresh data.
        ack(&mut s, Time::ZERO, Rank(1), 1, 4);
        for _ in 0..2 {
            let d = s.poll_timeout().expect("armed");
            s.handle_timeout(d);
            let _ = drain(&mut s);
        }
        assert_eq!(s.stats().quarantine_entered, 1);
        assert_eq!(
            s.stats().messages_completed,
            0,
            "completion gated on the quarantined receiver's catch-up"
        );
        // The next wake-up serves a unicast catch-up batch to rank 2.
        let d = s.poll_timeout().expect("catch-up scheduled");
        s.handle_timeout(d);
        let catchup = drain(&mut s)
            .into_iter()
            .filter(|t| t.dest == Dest::Rank(Rank(2)))
            .count();
        assert_eq!(catchup, 4, "one batch from the horizon");
        assert!(s.stats().catchup_retx_sent >= 4);
        // Rank 2 catches up: the message completes and it rejoins.
        ack(&mut s, d, Rank(2), 1, 4);
        assert!(events(&mut s).contains(&AppEvent::MessageSent { msg_id: 0 }));
        assert_eq!(s.stats().quarantine_rejoined, 1);
        assert!(s.is_idle());
    }

    #[test]
    fn quarantine_budget_exhaustion_resolves_through_eviction() {
        let mut c = ocfg(ProtocolKind::Ack);
        c.liveness = LivenessConfig::evicting(20);
        c.overload.quarantine_after = Some(2);
        c.overload.quarantine_budget = 1;
        let mut s = Sender::new(c, GroupSpec::new(2));
        s.send_message(Time::ZERO, Bytes::from(vec![1u8; 350]));
        let _ = drain(&mut s);
        ack(&mut s, Time::ZERO, Rank(1), 1, 4);
        for _ in 0..8 {
            let Some(d) = s.poll_timeout() else { break };
            s.handle_timeout(d);
            let _ = drain(&mut s);
            if s.stats().quarantine_evicted > 0 {
                break;
            }
        }
        assert_eq!(s.stats().quarantine_entered, 1);
        assert_eq!(s.stats().quarantine_evicted, 1, "budget spent");
        assert_eq!(s.stats().evictions, 1);
        let ev = events(&mut s);
        assert!(ev.contains(&AppEvent::ReceiverEvicted {
            msg_id: 0,
            rank: Rank(2)
        }));
        assert!(ev.contains(&AppEvent::MessageSent { msg_id: 0 }));
        assert!(s.is_idle());
    }

    #[test]
    fn backpressure_edges_fire_on_shrunken_window_stall() {
        let mut c = ocfg(ProtocolKind::Ack);
        c.liveness = LivenessConfig::bounded(20);
        let mut s = Sender::new(c, GroupSpec::new(1));
        // 7 packets, window 4.
        s.send_message(Time::ZERO, Bytes::from(vec![1u8; 650]));
        let _ = drain(&mut s);
        // Two timeouts shrink the cap 4 -> 2 -> 1.
        for _ in 0..2 {
            let d = s.poll_timeout().expect("armed");
            s.handle_timeout(d);
            let _ = drain(&mut s);
        }
        assert_eq!(s.stats().window_shrinks, 2);
        // Partial progress leaves occupancy at the clamped cap: stall.
        ack(&mut s, Time::from_millis(40), Rank(1), 1, 1);
        let _ = drain(&mut s);
        assert!(events(&mut s).contains(&AppEvent::Backpressure {
            msg_id: 0,
            congested: true
        }));
        assert_eq!(s.stats().backpressure_signals, 1);
        // Completion regrows the window and clears the edge.
        ack(&mut s, Time::from_millis(41), Rank(1), 1, 4);
        let _ = drain(&mut s);
        ack(&mut s, Time::from_millis(42), Rank(1), 1, 7);
        let ev = events(&mut s);
        assert!(ev.contains(&AppEvent::Backpressure {
            msg_id: 0,
            congested: false
        }));
        assert!(ev.contains(&AppEvent::MessageSent { msg_id: 0 }));
        assert_eq!(s.stats().backpressure_signals, 2);
    }
}
