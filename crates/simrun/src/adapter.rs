//! Driving sans-io endpoints as simulated host processes.

use crate::cost::CostModel;
use bytes::Bytes;
use netsim::process::{Ctx, DatagramIn, Process};
use netsim::{GroupId, HostId, Sim, TraceCounters, UdpDest};
use rmcast::{AppEvent, Dest, Endpoint, SessionError, Stats};
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
/// progresses and completed from the simulator when the run ends.
#[derive(Debug, Default)]
pub struct Recorder {
    /// When the sender completed its final message.
    pub sender_done: Option<Time>,
    /// `(msg_id, time)` sender completions.
    pub messages_sent: Vec<(u64, Time)>,
    /// `(rank, msg_id, time, bytes)` receiver deliveries.
    pub deliveries: Vec<(Rank, u64, Time, usize)>,
    /// `(rank, msg_id, crc32c)` of every delivered payload, parallel to
    /// `deliveries`: the bit-intactness witness for byzantine runs. Filled
    /// only under [`DeliveryCheck::Crc`].
    pub delivery_crcs: Vec<(Rank, u64, u32)>,
    /// `(msg_id, error, time)` sender-side abandoned messages (liveness
    /// bound tripped).
    pub failures: Vec<(u64, SessionError, Time)>,
    /// `(rank, msg_id, error)` receiver-side give-ups.
    pub receiver_failures: Vec<(Rank, u64, SessionError)>,
    /// `(evicted_rank, msg_id)` straggler evictions, as observed by the
    /// evicting endpoint (sender or tree aggregation node).
    pub evictions: Vec<(Rank, u64)>,
    /// `(rank, epoch)` membership admissions announced by the sender.
    pub joins: Vec<(Rank, u32)>,
    /// How many crash-restarted hosts respawned their endpoint.
    pub restarts: usize,
    /// `(msg_id, congested, time)` sender backpressure edges (AIMD
    /// shrank the window below its configured size and the send path
    /// stalled on it / recovered).
    pub backpressure: Vec<(u64, bool, Time)>,
    /// Flight-recorder dumps emitted on failure (when enabled).
    pub flight_dumps: Vec<rmcast::FlightDump>,
    /// Latest sender counters.
    pub sender_stats: Stats,
    /// Latest per-receiver counters (by receiver index).
    pub receiver_stats: Vec<Stats>,
    /// How many sender completions end the run.
    pub expect_msgs: u64,
    /// What each delivered payload is held against.
    pub check: DeliveryCheck,
    /// The network's counters at the end of the run.
    pub trace: TraceCounters,
    /// CPU time the sender's host spent over the run.
    pub sender_cpu_busy: Duration,
}

/// How the recorder vouches for the bytes of a delivery.
#[derive(Debug, Default)]
pub enum DeliveryCheck {
    /// Compare with the sent message of that id (the vector index) and
    /// panic on any difference: in a run whose result carries no payload
    /// witness, a delivery that is not bit-intact is a bug, like a hang.
    Sent(Vec<Bytes>),
    /// Fingerprint into [`Recorder::delivery_crcs`] and judge nothing:
    /// under a byzantine fault plan a corrupted delivery is an outcome the
    /// caller reports.
    #[default]
    Crc,
}

/// A shared handle to the run recorder.
pub type SharedRecorder = Rc<RefCell<Recorder>>;

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
    pub rec: SharedRecorder,
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
                    AppEvent::MessageSent { msg_id } => {
                        rec.messages_sent.push((msg_id, now));
                        if (rec.messages_sent.len() + rec.failures.len()) as u64 >= rec.expect_msgs
                        {
                            rec.sender_done = Some(now);
                            stop = true;
                        }
                    }
                    AppEvent::MessageDelivered { msg_id, data } => {
                        if let NodeRole::Receiver { index } = self.role {
                            let rank = Rank::from_receiver_index(index);
                            rec.deliveries.push((rank, msg_id, now, data.len()));
                            match &rec.check {
                                DeliveryCheck::Sent(msgs) => assert!(
                                    msgs.get(msg_id as usize) == Some(&data),
                                    "{rank} delivered message {msg_id} with bytes that \
                                     differ from the message sent"
                                ),
                                DeliveryCheck::Crc => {
                                    let crc = rmwire::crc32c(&data);
                                    rec.delivery_crcs.push((rank, msg_id, crc));
                                }
                            }
                        }
                    }
                    AppEvent::MessageFailed { msg_id, error } => match self.role {
                        // A sender-side failure still resolves the message:
                        // it counts toward run completion.
                        NodeRole::Sender => {
                            rec.failures.push((msg_id, error, now));
                            if (rec.messages_sent.len() + rec.failures.len()) as u64
                                >= rec.expect_msgs
                            {
                                rec.sender_done = Some(now);
                                stop = true;
                            }
                        }
                        NodeRole::Receiver { index } => {
                            rec.receiver_failures.push((
                                Rank::from_receiver_index(index),
                                msg_id,
                                error,
                            ));
                        }
                    },
                    AppEvent::ReceiverEvicted { msg_id, rank } => {
                        rec.evictions.push((rank, msg_id));
                    }
                    AppEvent::ReceiverJoined { rank, epoch } => {
                        rec.joins.push((rank, epoch));
                    }
                    AppEvent::Backpressure { msg_id, congested } => {
                        rec.backpressure.push((msg_id, congested, now));
                    }
                    AppEvent::FlightRecorderDump { dump } => {
                        rec.flight_dumps.push(dump);
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
                NodeRole::Sender => rec.sender_stats = self.ep.stats().clone(),
                NodeRole::Receiver { index: i } => {
                    if rec.receiver_stats.len() <= i {
                        rec.receiver_stats.resize(i + 1, Stats::default());
                    }
                    rec.receiver_stats[i] = self.ep.stats().clone();
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
            self.nodes.rec.borrow_mut().restarts += 1;
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
