//! Driving sans-io endpoints as simulated host processes.

use crate::cost::CostModel;
use crate::scenario::ChaosOutcome;
use bytes::Bytes;
use netsim::process::{Ctx, DatagramIn, Process};
use netsim::{GroupId, HostId, Sim, UdpDest};
use rmcast::{AppEvent, Dest, Endpoint, Stats};
use rmwire::{Duration, Rank, Time};
use std::cell::RefCell;
use std::rc::Rc;

thread_local! {
    /// Assembly buffers handed back by the receivers of this thread's most
    /// recent simulation, for the next one to assemble in (DESIGN.md,
    /// *Buffer lifecycle*). Per thread because the simulator is
    /// single-threaded and `Rc`-based; never per scenario, or every
    /// scenario kept alive would pin a run's worth of buffers.
    static SPARES: RefCell<Vec<Bytes>> = const { RefCell::new(Vec::new()) };
}

/// Take every buffer the previous run on this thread handed back. What the
/// caller does not seed a receiver with it drops, so the list never holds
/// more than the latest run's assemblies.
pub(crate) fn take_spares() -> Vec<Bytes> {
    SPARES.take()
}

/// Maps protocol-level destinations onto simulated addresses.
#[derive(Debug, Clone)]
pub struct AddrMap {
    /// Host running the sender (rank 0).
    pub sender_host: HostId,
    /// Hosts running receivers, by receiver index (rank − 1).
    pub receiver_hosts: Vec<HostId>,
    /// The receivers' multicast group.
    pub group: GroupId,
    /// UDP port every endpoint binds.
    pub port: u16,
}

impl AddrMap {
    /// Resolve an endpoint destination to a simulated UDP destination.
    pub fn resolve(&self, dest: Dest) -> UdpDest {
        match dest {
            Dest::Sender => UdpDest::host(self.sender_host, self.port),
            Dest::Rank(r) => UdpDest::host(self.receiver_hosts[r.receiver_index()], self.port),
            Dest::Receivers => UdpDest::group(self.group, self.port),
        }
    }
}

/// Shared run measurements, filled in by the adapters as the simulation
/// progresses and completed from the simulator when the run ends: the
/// [`ChaosOutcome`] a run returns, plus what a run needs that the outcome
/// does not report.
#[derive(Debug, Default)]
pub struct Recorder {
    /// What the run produced.
    pub out: ChaosOutcome,
    /// When the sender first completed a message, whether or not that ends
    /// the run.
    pub first_sent: Option<Time>,
    /// How many sender resolutions end the run.
    pub expect_msgs: u64,
    /// What each delivered payload is held against.
    pub check: DeliveryCheck,
    /// CPU time the sender's host spent over the run.
    pub sender_cpu_busy: Duration,
}

impl Recorder {
    /// Count one sender resolution, completed or abandoned; true if it is
    /// the one that ends the run, which it stamps.
    fn resolve(&mut self, now: Time) -> bool {
        let done = (self.out.messages_sent + self.out.failures.len()) as u64 >= self.expect_msgs;
        if done {
            self.out.completed = true;
            self.out.comm_time = Some(now.saturating_since(Time::ZERO));
        }
        done
    }
}

/// How the recorder vouches for the bytes of a delivery.
#[derive(Debug, Default)]
pub enum DeliveryCheck {
    /// Compare with the sent message of that id (the vector index) and
    /// panic on any difference: in a run whose result carries no payload
    /// witness, a delivery that is not bit-intact is a bug, like a hang.
    Sent(Vec<Bytes>),
    /// Fingerprint into [`ChaosOutcome::delivered_crcs`] and judge nothing:
    /// under a byzantine fault plan a corrupted delivery is an outcome the
    /// caller reports.
    #[default]
    Crc,
}

/// Whether this node records as the sender or as receiver `index`.
#[derive(Debug, Clone, Copy)]
pub enum NodeRole {
    /// The sending endpoint; stops the simulation once every message
    /// resolves.
    Sender,
    /// A receiving endpoint with its 0-based index.
    Receiver {
        /// Receiver index (rank − 1).
        index: usize,
    },
}

/// What the nodes of one multicast group share: where each rank lives,
/// the cost model they charge and the recorder they report to.
#[derive(Debug, Clone)]
pub struct Nodes {
    /// Hosts and port of every rank.
    pub addr: Rc<AddrMap>,
    /// User-level protocol cost model.
    pub cost: CostModel,
    /// The run's recorder.
    pub rec: Rc<RefCell<Recorder>>,
}

impl Nodes {
    /// Spawn `ep` as `role` on that role's host. A sender has its messages
    /// queued already. `take_spare` gives up the buffer the endpoint would
    /// assemble its next message in, which goes to this thread's next run
    /// when the simulator drops; `rebuild`, if any, replaces the endpoint
    /// after a simulated crash-restart — typically
    /// `Receiver::new_joining`, so the reborn node re-enters the group
    /// through the membership handshake instead of resuming with
    /// pre-crash state a real reboot would have lost.
    pub fn spawn<E: Endpoint + 'static>(
        &self,
        sim: &mut Sim,
        role: NodeRole,
        ep: E,
        take_spare: fn(&mut E) -> Option<Bytes>,
        rebuild: Option<Box<dyn FnMut(Time) -> E>>,
    ) {
        let host = match role {
            NodeRole::Sender => self.addr.sender_host,
            NodeRole::Receiver { index } => self.addr.receiver_hosts[index],
        };
        let node = NodeProcess {
            ep,
            role,
            nodes: self.clone(),
            take_spare,
            rebuild,
        };
        sim.spawn(host, self.addr.port, Box::new(node));
    }
}

/// The netsim process wrapping one endpoint.
struct NodeProcess<E: Endpoint> {
    ep: E,
    role: NodeRole,
    nodes: Nodes,
    take_spare: fn(&mut E) -> Option<Bytes>,
    rebuild: Option<Box<dyn FnMut(Time) -> E>>,
}

impl<E: Endpoint> NodeProcess<E> {
    /// Drain transmits/events and re-arm the timer after any endpoint
    /// activity.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(t) = self.ep.poll_transmit() {
            if t.copied > 0 {
                ctx.charge(self.nodes.cost.copy_cost(t.copied));
            }
            ctx.charge(self.nodes.cost.per_datagram_send);
            ctx.charge_clock_read();
            let dest = self.nodes.addr.resolve(t.dest);
            ctx.send(dest, t.payload);
        }

        let now = ctx.now();
        let mut stop = false;
        {
            let rec = &mut *self.nodes.rec.borrow_mut();
            while let Some(ev) = self.ep.poll_event() {
                match ev {
                    AppEvent::MessageSent { .. } => {
                        rec.first_sent.get_or_insert(now);
                        rec.out.messages_sent += 1;
                        stop |= rec.resolve(now);
                    }
                    AppEvent::MessageDelivered { msg_id, data } => {
                        if let NodeRole::Receiver { index } = self.role {
                            let rank = Rank::from_receiver_index(index);
                            rec.out.deliveries += 1;
                            rec.out.delivered_msgs.push((rank, msg_id, now, data.len()));
                            match &rec.check {
                                DeliveryCheck::Sent(msgs) => assert!(
                                    msgs.get(msg_id as usize) == Some(&data),
                                    "{rank} delivered message {msg_id} with bytes that \
                                     differ from the message sent"
                                ),
                                DeliveryCheck::Crc => {
                                    let crc = rmwire::crc32c(&data);
                                    rec.out.delivered_crcs.push((rank, msg_id, crc));
                                }
                            }
                        }
                    }
                    AppEvent::MessageFailed { msg_id, error } => match self.role {
                        // A sender-side failure still resolves the message:
                        // it counts toward run completion.
                        NodeRole::Sender => {
                            rec.out.failures.push((msg_id, error));
                            stop |= rec.resolve(now);
                        }
                        NodeRole::Receiver { index } => {
                            let rank = Rank::from_receiver_index(index);
                            rec.out.receiver_failures.push((rank, msg_id, error));
                        }
                    },
                    AppEvent::ReceiverEvicted { msg_id, rank } => {
                        rec.out.evictions.push((rank, msg_id));
                    }
                    AppEvent::ReceiverJoined { rank, epoch } => {
                        rec.out.joins.push((rank, epoch));
                    }
                    AppEvent::Backpressure { msg_id, congested } => {
                        rec.out.backpressure.push((msg_id, congested));
                    }
                    AppEvent::FlightRecorderDump { dump } => {
                        rec.out.flight_dumps.push(dump);
                    }
                }
            }
        }
        if stop {
            ctx.stop_sim();
            return;
        }
        match self.ep.poll_timeout() {
            Some(t) => ctx.set_timer(t),
            None => ctx.clear_timer(),
        }
    }
}

/// When the simulation is torn down the endpoint's counters go to the
/// recorder, once: every handler pumps, and the simulator keeps every
/// process until it is dropped, so these are the run's final counters. The
/// endpoint's assembly buffer goes to this thread's next run instead of
/// back to the allocator.
impl<E: Endpoint> Drop for NodeProcess<E> {
    fn drop(&mut self) {
        // Nothing holds the recorder while the simulator drops, so the
        // borrow cannot fail; should it, drop must still not panic.
        if let Ok(mut rec) = self.nodes.rec.try_borrow_mut() {
            match self.role {
                NodeRole::Sender => rec.out.sender_stats = self.ep.stats().clone(),
                NodeRole::Receiver { index: i } => {
                    let all = &mut rec.out.receiver_stats;
                    if all.len() <= i {
                        all.resize(i + 1, Stats::default());
                    }
                    all[i] = self.ep.stats().clone();
                }
            }
        }
        if let Some(buf) = (self.take_spare)(&mut self.ep) {
            // During thread teardown the list may be gone: let the buffer go.
            let _ = SPARES.try_with(|s| s.borrow_mut().push(buf));
        }
    }
}

impl<E: Endpoint> Process for NodeProcess<E> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.pump(ctx);
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dg: DatagramIn) {
        ctx.charge(self.nodes.cost.per_datagram_handle);
        ctx.charge_clock_read();
        let now = ctx.now();
        self.ep.handle_datagram(now, &dg.payload);
        self.pump(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>) {
        ctx.charge_clock_read();
        let now = ctx.now();
        self.ep.handle_timeout(now);
        self.pump(ctx);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(f) = &mut self.rebuild {
            self.ep = f(ctx.now());
            self.nodes.rec.borrow_mut().out.restarts += 1;
        }
        // Without a rebuild factory the endpoint keeps its pre-crash
        // state (the pre-membership behavior); either way the timer must
        // be re-armed since the reboot wiped it.
        self.pump(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::SPARES;
    use crate::scenario::{Protocol, Scenario};
    use rmcast::{ProtocolConfig, ProtocolKind};

    fn handed_back() -> Vec<usize> {
        SPARES.with(|s| s.borrow().iter().map(|b| b.len()).collect())
    }

    /// `Scenario::run` compares every delivery with the message sent, so
    /// completing is being bit-intact.
    #[test]
    fn list_holds_only_the_last_runs_assemblies() {
        let cfg = ProtocolConfig::new(ProtocolKind::nak_polling(16), 8_000, 20);
        assert!(handed_back().is_empty(), "a fresh thread has none");
        // Smaller, then larger than what the run before left behind; fewer
        // receivers than buffers, then more.
        for (n, size) in [(8u16, 500_000usize), (2, 100_000), (8, 600_000)] {
            let r = Scenario::new(Protocol::Rm(cfg), n, size).run(1);
            assert_eq!(r.deliveries, n as usize);
            assert_eq!(handed_back(), vec![size; n as usize]);
        }
        // A run whose receivers keep no buffer still takes the list, and
        // drops what it took.
        let raw = Protocol::RawUdp { packet_size: 8_000 };
        Scenario::new(raw, 4, 50_000).run(1);
        assert!(handed_back().is_empty(), "raw UDP receivers keep no buffer");
    }
}
