//! The discrete-event engine.

use crate::bus::BusState;
use crate::config::{FabricKind, FaultPlan, LinkParams, SimConfig};
use crate::frame::{self, Datagram, Frame, UdpDest, MAX_DATAGRAM};
use crate::host::{HostState, Reassembly, WorkItem};
use crate::ids::{GroupId, HostId, PortRef, SwitchId};
use crate::process::{Ctx, DatagramIn, Process};
use crate::queue::{Event, EventQueue};
use crate::switch::SwitchState;
use crate::trace::{DropCause, TraceCounters};
use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rmwire::{Duration, Time};
use std::collections::VecDeque;
use std::rc::Rc;

/// Events name hosts, switches and ports by `u32` (see [`crate::queue`]);
/// `add_host`, `add_switch` and `SwitchState::add_port` keep every index
/// in range, so the narrowing is lossless.
fn id32(index: usize) -> u32 {
    debug_assert!(
        u32::try_from(index).is_ok(),
        "index {index} escaped its bound"
    );
    index as u32
}

/// The simulator: topology, processes, the event queue and the clock.
///
/// Build one with [`Sim::new`], add hosts/switches/links (usually through
/// [`crate::topology`] presets), [`Sim::spawn`] processes, then
/// [`Sim::run`] or [`Sim::run_until`].
pub struct Sim {
    cfg: SimConfig,
    now: Time,
    queue: EventQueue,
    pub(crate) hosts: Vec<HostState>,
    host_params: Vec<crate::config::HostParams>,
    procs: Vec<Option<Box<dyn Process>>>,
    switches: Vec<SwitchState>,
    groups: Vec<Vec<HostId>>,
    rng: SmallRng,
    trace: TraceCounters,
    trace_sink: Option<Box<dyn rmtrace::TraceSink>>,
    next_ip_id: u64,
    stop: bool,
    routes_dirty: bool,
    bus: BusState,
    fault_plan: FaultPlan,
    /// Per-host Gilbert–Elliott channel state (`true` = bad/lossy).
    burst_bad: Vec<bool>,
    /// Recently delivered datagrams the byzantine replay fault draws
    /// from; bounded at [`REPLAY_RING_CAP`]. Only populated while the
    /// replay knob is enabled.
    replay_ring: VecDeque<Rc<Datagram>>,
}

/// How many recently delivered datagrams the replay fault remembers.
const REPLAY_RING_CAP: usize = 64;

impl Sim {
    /// A new, empty simulation with the given configuration and RNG seed.
    pub fn new(cfg: SimConfig, seed: u64) -> Self {
        Sim {
            cfg,
            now: Time::ZERO,
            queue: EventQueue::default(),
            hosts: Vec::new(),
            host_params: Vec::new(),
            procs: Vec::new(),
            switches: Vec::new(),
            groups: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
            trace: TraceCounters::default(),
            trace_sink: None,
            next_ip_id: 0,
            stop: false,
            routes_dirty: true,
            bus: BusState::new(),
            fault_plan: FaultPlan::default(),
            burst_bad: Vec::new(),
            replay_ring: VecDeque::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Instrumentation counters.
    pub fn trace(&self) -> &TraceCounters {
        &self.trace
    }

    /// Stream network drop events into a structured trace sink, the
    /// simulator's one event channel beside [`Sim::trace`]'s counters.
    /// Endpoints writing to the same sink through their own tracers
    /// interleave a packet's full journey (sent → dropped/delivered →
    /// acked) in one stream.
    pub fn set_trace_sink(&mut self, sink: Box<dyn rmtrace::TraceSink>) {
        self.trace_sink = Some(sink);
    }

    /// Count a drop and, when a trace sink is attached, emit it there
    /// too. `host` is the host at (or toward) which the drop happened;
    /// fabric-level drops (switch queues, trunks) have none and are
    /// stamped `u16::MAX`.
    fn note_drop(&mut self, cause: DropCause, host: Option<HostId>) {
        self.trace.record_drop(cause);
        if let Some(sink) = &mut self.trace_sink {
            sink.emit(&rmtrace::TraceRecord {
                t_ns: self.now.as_nanos(),
                rank: host.map_or(u16::MAX, |h| h.0 as u16),
                ev: rmtrace::TraceEvent::Drop { cause },
            });
        }
    }

    /// The deterministic random generator (shared by fabric and processes).
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Install the fault schedule (see [`FaultPlan`]). Call after the
    /// topology is built so host references can be validated. The empty
    /// plan is a strict no-op: it draws no randomness and changes no
    /// event ordering.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        let known = |h: HostId| {
            assert!(h.0 < self.hosts.len(), "fault plan references unknown {h}");
        };
        for &(h, _) in &plan.link_loss {
            known(h);
        }
        for w in &plan.link_down {
            known(w.host);
        }
        for f in &plan.host_faults {
            known(f.host);
        }
        for f in &plan.forge {
            known(f.dest);
            known(f.src);
        }
        for w in &plan.feedback_storm {
            known(w.target);
        }
        for w in &plan.cpu_load {
            known(w.host);
        }
        for &(h, _, _) in &plan.sockbuf_exhaust {
            known(h);
        }
        let restarts: Vec<_> = plan.restarts().collect();
        let forged: Vec<_> = plan.forge.clone();
        self.fault_plan = plan;
        for (host, at) in restarts {
            self.schedule(at, Event::HostRestart { host: id32(host.0) });
        }
        for f in forged {
            self.schedule(f.at, Event::ForgeDeliver(Box::new(f)));
        }
    }

    /// The active fault schedule.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    // ------------------------------------------------------------------
    // Topology construction
    // ------------------------------------------------------------------

    /// Add a workstation (with the configuration's default host
    /// parameters; override with [`Sim::set_host_params`]).
    pub fn add_host(&mut self) -> HostId {
        assert!(self.hosts.len() < u32::MAX as usize, "too many hosts");
        self.hosts.push(HostState::new(self.cfg.link));
        self.host_params.push(self.cfg.host);
        self.procs.push(None);
        self.burst_bad.push(false);
        self.bus.add_host();
        self.routes_dirty = true;
        HostId(self.hosts.len() - 1)
    }

    /// Add a switch (switched fabric only).
    pub fn add_switch(&mut self) -> SwitchId {
        assert_eq!(
            self.cfg.fabric,
            FabricKind::Switched,
            "switches exist only in the switched fabric"
        );
        assert!(self.switches.len() < u32::MAX as usize, "too many switches");
        self.switches.push(SwitchState::new());
        self.routes_dirty = true;
        SwitchId(self.switches.len() - 1)
    }

    /// Cable a host to a switch port.
    pub fn connect_host(&mut self, host: HostId, sw: SwitchId) {
        assert!(
            self.hosts[host.0].peer.is_none(),
            "{host} is already cabled"
        );
        let link = self.hosts[host.0].link;
        let port = self.switches[sw.0].add_port(link);
        self.switches[sw.0].ports[port].peer = Some(PortRef::Host(host));
        self.hosts[host.0].peer = Some(PortRef::Switch(sw, port));
        self.routes_dirty = true;
    }

    /// Override the physical parameters of one host's uplink (both
    /// directions). Call after [`Sim::connect_host`]. The MTU stays
    /// fabric-global (no path-MTU discovery is modelled).
    pub fn set_link_params(&mut self, host: HostId, params: LinkParams) {
        assert_eq!(
            params.mtu, self.cfg.link.mtu,
            "per-link MTU overrides are not supported (no path MTU discovery)"
        );
        self.hosts[host.0].link = params;
        if let Some(PortRef::Switch(sw, port)) = self.hosts[host.0].peer {
            self.switches[sw.0].ports[port].link = params;
        }
    }

    /// Override the trunk between two directly cabled switches (both
    /// directions). Panics if they are not directly cabled.
    pub fn set_trunk_params(&mut self, a: SwitchId, b: SwitchId, params: LinkParams) {
        assert_eq!(
            params.mtu, self.cfg.link.mtu,
            "per-link MTU overrides are not supported (no path MTU discovery)"
        );
        let mut found = false;
        for p in 0..self.switches[a.0].ports.len() {
            if let Some(PortRef::Switch(sw2, p2)) = self.switches[a.0].ports[p].peer {
                if sw2 == b {
                    self.switches[a.0].ports[p].link = params;
                    self.switches[b.0].ports[p2].link = params;
                    found = true;
                }
            }
        }
        assert!(found, "{a} and {b} are not directly cabled");
    }

    /// Cable two switches together.
    pub fn connect_switches(&mut self, a: SwitchId, b: SwitchId) {
        assert_ne!(a, b, "cannot cable a switch to itself");
        let pa = self.switches[a.0].add_port(self.cfg.link);
        let pb = self.switches[b.0].add_port(self.cfg.link);
        self.switches[a.0].ports[pa].peer = Some(PortRef::Switch(b, pb));
        self.switches[b.0].ports[pb].peer = Some(PortRef::Switch(a, pa));
        self.routes_dirty = true;
    }

    /// Create a static multicast group; every member host joins it.
    pub fn create_group(&mut self, members: &[HostId]) -> GroupId {
        let gid = GroupId(self.groups.len());
        for &m in members {
            let joined = &mut self.hosts[m.0].memberships;
            if !joined.contains(&gid) {
                joined.push(gid);
            }
        }
        self.groups.push(members.to_vec());
        // The switches' fan-out tables have no entry for the new group yet.
        self.routes_dirty = true;
        gid
    }

    /// Bind `proc` to `(host, port)` and schedule its `on_start` at time
    /// zero. Each host runs at most one process, which may bind additional
    /// ports with [`Sim::bind_port`].
    pub fn spawn(&mut self, host: HostId, port: u16, proc_: Box<dyn Process>) {
        assert!(
            self.procs[host.0].is_none(),
            "{host} already runs a process"
        );
        self.bind_port(host, port);
        self.procs[host.0] = Some(proc_);
        self.enqueue_work(host, WorkItem::Start, Time::ZERO);
    }

    /// Override one host's CPU/buffer parameters, making the cluster
    /// heterogeneous (the paper scopes itself to homogeneous clusters,
    /// §3; this knob exists to test that scoping).
    pub fn set_host_params(&mut self, host: HostId, params: crate::config::HostParams) {
        self.host_params[host.0] = params;
    }

    /// The effective parameters of one host.
    pub fn host_params(&self, host: HostId) -> &crate::config::HostParams {
        &self.host_params[host.0]
    }

    /// Total CPU time this host has spent processing work items.
    pub fn cpu_busy(&self, host: HostId) -> Duration {
        self.hosts[host.0].cpu_busy_accum
    }

    /// Bind an additional UDP port on a host.
    pub fn bind_port(&mut self, host: HostId, port: u16) {
        let h = &mut self.hosts[host.0];
        assert!(
            h.socket_mut(port).is_none(),
            "{host} port {port} already bound"
        );
        h.sockets.push((port, 0));
    }

    // ------------------------------------------------------------------
    // Run loop
    // ------------------------------------------------------------------

    /// Run until the queue drains, a process calls
    /// [`Ctx::stop_sim`], or the clock would pass `deadline`.
    pub fn run_until(&mut self, deadline: Time) {
        if self.routes_dirty {
            self.finalize_routes();
        }
        while !self.stop {
            let Some((at, ev)) = self.queue.pop_due(deadline) else {
                break;
            };
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.dispatch(ev);
        }
        if rmprof::enabled() {
            let (near, timers) = self.queue.peaks();
            rmprof::gauge("netsim.queue_peak").set(near as i64);
            rmprof::gauge("netsim.timer_queue_peak").set(timers as i64);
        }
    }

    /// Run to quiescence (or until stopped).
    pub fn run(&mut self) {
        self.run_until(Time::MAX);
    }

    /// `true` once a process has requested a stop.
    pub fn stopped(&self) -> bool {
        self.stop
    }

    pub(crate) fn request_stop(&mut self) {
        self.stop = true;
    }

    fn schedule(&mut self, at: Time, ev: Event) {
        debug_assert!(at >= self.now, "scheduling into the past");
        self.queue.schedule(at, ev);
    }

    /// Schedule `frame`'s arrival at the far end of a link. Every fabric's
    /// host arrivals go through here, so a same-instant fan-out becomes one
    /// queue entry whoever produced it.
    fn schedule_frame(&mut self, to: PortRef, at: Time, frame: Frame) {
        debug_assert!(at >= self.now, "scheduling into the past");
        match to {
            PortRef::Host(h) => self.queue.schedule_arrival(at, id32(h.0), frame),
            PortRef::Switch(sw, in_port) => self.queue.schedule(
                at,
                Event::FrameAtSwitch {
                    dg: frame.dg,
                    index: frame.index,
                    sw: id32(sw.0),
                    in_port: id32(in_port),
                },
            ),
        }
    }

    /// One `FrameAtHost` entry: the frame reaches each host of the list in
    /// turn, each arrival a dispatch of its own.
    fn frame_at_hosts(&mut self, frame: &Frame, run: u32) {
        let run = self.queue.take_run(run);
        for &h in run.hosts() {
            let _span = rmprof::span!(rmprof::Stage::NetsimDispatch);
            self.frame_at_host(HostId(h as usize), frame);
        }
    }

    fn dispatch(&mut self, ev: Event) {
        // A `FrameAtHost` entry opens its own spans, one per host reached.
        let _span = match ev {
            Event::FrameAtHost { .. } => None,
            _ => Some(rmprof::span!(rmprof::Stage::NetsimDispatch)),
        };
        let host_id = |h: u32| HostId(h as usize);
        match ev {
            Event::FrameAtSwitch {
                dg,
                index,
                sw,
                in_port,
            } => self.frame_at_switch(SwitchId(sw as usize), in_port as usize, Frame { dg, index }),
            Event::FrameAtHost { dg, index, run } => self.frame_at_hosts(&Frame { dg, index }, run),
            Event::CpuDone { host } => self.cpu_dispatch(host_id(host)),
            Event::TimerFire { host, gen } => self.timer_fire(host_id(host), gen),
            Event::ReassemblyExpire { host, src, ip_id } => {
                let host = host_id(host);
                if self.hosts[host.0]
                    .take_reassembly((host_id(src), ip_id))
                    .is_some()
                {
                    self.note_drop(DropCause::ReassemblyTimeout, Some(host));
                }
            }
            Event::BusAttempt { host } => self.bus_attempt(host_id(host)),
            Event::BusResolve => self.bus_resolve(),
            Event::HostRestart { host } => self.host_restart(host_id(host)),
            Event::ForgeDeliver(f) => self.forge_deliver(f.dest, f.src, f.port, f.payload),
        }
    }

    /// Reboot a crash-restarted host: the kernel state a real machine
    /// loses on power-cycle (socket buffers, half-reassembled datagrams,
    /// queued work, armed timers) is wiped, then the process's
    /// [`Process::on_restart`] runs as the first thing on the fresh CPU.
    fn host_restart(&mut self, host: HostId) {
        let h = &mut self.hosts[host.0];
        h.cpu_queue.clear();
        h.cpu_active = false;
        h.reassembly.clear();
        for (_, buffered) in &mut h.sockets {
            *buffered = 0;
        }
        h.timer_gen += 1;
        h.timer_armed = false;
        if self.procs[host.0].is_some() {
            let at = self.now;
            self.enqueue_work(host, WorkItem::Restart, at);
        }
    }

    // ------------------------------------------------------------------
    // UDP send path
    // ------------------------------------------------------------------

    /// Charge send costs at `cursor`, fragment, and inject the datagram
    /// into the fabric. Returns the advanced CPU cursor (send-buffer
    /// blocking included).
    pub(crate) fn udp_send(
        &mut self,
        src: HostId,
        dest: UdpDest,
        payload: Bytes,
        cursor: Time,
    ) -> Time {
        assert!(
            payload.len() <= MAX_DATAGRAM,
            "datagram exceeds 64 KiB UDP limit: {}",
            payload.len()
        );
        if let UdpDest::Host(h, _) = dest {
            assert!(h.0 < self.hosts.len(), "unknown destination {h}");
            assert_ne!(h, src, "loopback sends are not modelled");
        }
        if let UdpDest::Group(g, _) = dest {
            assert!(g.0 < self.groups.len(), "unknown group {g}");
        }

        let frag_data = frame::frag_data_for_mtu(self.cfg.link.mtu);
        let n_frags = frame::n_fragments_with(payload.len(), frag_data);
        let hp = self.host_params[src.0];
        let mut cursor = cursor;
        let mut cost = hp.send_syscall + hp.send_per_fragment.saturating_mul(n_frags as u64);
        cost += Duration::from_nanos(hp.send_per_byte_ns * payload.len() as u64);
        cursor += self.jitter_for(src, cost);

        self.trace.datagrams_sent += 1;
        self.trace.payload_bytes_sent += payload.len() as u64;

        let ip_id = self.next_ip_id;
        self.next_ip_id += 1;
        let src_port = 0; // informational; protocols identify peers by rank
        let dg = Rc::new(Datagram {
            src_host: src,
            src_port,
            dest,
            payload,
            ip_id,
            frag_data,
        });

        match self.cfg.fabric {
            FabricKind::Switched => {
                let peer = self.hosts[src.0]
                    .peer
                    .expect("host is not cabled to a switch");
                let link = self.hosts[src.0].link;
                for fr in frame::fragment(dg) {
                    let bytes = fr.frame_bytes();
                    let fit = self.hosts[src.0]
                        .egress
                        .earliest_fit(cursor, bytes, hp.send_sockbuf)
                        .expect("frame larger than socket send buffer");
                    cursor = cursor.max(fit);
                    let tx = fr.tx_time(link.rate_bps);
                    let done = self.hosts[src.0].egress.enqueue(cursor, tx, bytes);
                    self.trace.frames_sent += 1;
                    self.trace.wire_bytes_sent += fr.wire_bytes() as u64;
                    self.emit_frame(peer, fr, done, link.prop_delay, Some(src));
                }
            }
            FabricKind::SharedBus => {
                for fr in frame::fragment(dg) {
                    self.trace.frames_sent += 1;
                    self.bus_enqueue(src, fr, cursor);
                }
            }
        }
        cursor
    }

    /// Schedule the arrival of a frame whose last bit leaves the
    /// transmitter at `done`, applying the fault plan's wire faults (loss,
    /// duplication) and link faults. `edge` names the host whose access
    /// link this hop traverses (`None` on switch-to-switch trunks).
    ///
    /// Every chaos-plan check is gated on its knob being enabled, so an
    /// empty plan draws no randomness — seeded runs stay bit-identical.
    fn emit_frame(
        &mut self,
        to: PortRef,
        frame: Frame,
        done: Time,
        prop_delay: Duration,
        edge: Option<HostId>,
    ) {
        let p = self.fault_plan.frame_loss;
        if p > 0.0 && self.rng.gen::<f64>() < p {
            self.note_drop(DropCause::WireFault, edge);
            return;
        }
        let dup = self.fault_plan.frame_dup;
        let duplicated = dup > 0.0 && self.rng.gen::<f64>() < dup;
        if let Some(h) = edge {
            if !self.fault_plan.link_down.is_empty() && self.fault_plan.link_is_down(h, done) {
                self.note_drop(DropCause::LinkDown, Some(h));
                return;
            }
            if !self.fault_plan.link_loss.is_empty() {
                let lp = self.fault_plan.link_loss_for(h);
                if lp > 0.0 && self.rng.gen::<f64>() < lp {
                    self.note_drop(DropCause::WireFault, Some(h));
                    return;
                }
            }
            if let Some(ge) = self.fault_plan.burst {
                let r = self.rng.gen::<f64>();
                let bad = if self.burst_bad[h.0] {
                    r >= ge.p_bad_to_good()
                } else {
                    r < ge.p_good_to_bad()
                };
                self.burst_bad[h.0] = bad;
                if bad {
                    self.note_drop(DropCause::BurstLoss, Some(h));
                    return;
                }
            }
        }
        if self.fault_plan.corrupt > 0.0 && self.rng.gen::<f64>() < self.fault_plan.corrupt {
            self.note_drop(DropCause::Corrupt, edge);
            return;
        }
        let mut at = done + prop_delay;
        if self.fault_plan.reorder > 0.0 && self.rng.gen::<f64>() < self.fault_plan.reorder {
            at += self.fault_plan.reorder_delay;
            self.trace.frames_reordered += 1;
        }
        if duplicated {
            self.schedule_frame(to, at, frame.clone());
            // The duplicate trails its original by a microsecond.
            at += Duration::from_micros(1);
        }
        self.schedule_frame(to, at, frame);
    }

    // ------------------------------------------------------------------
    // Switch forwarding
    // ------------------------------------------------------------------

    fn frame_at_switch(&mut self, sw: SwitchId, in_port: usize, frame: Frame) {
        match frame.dg.dest {
            UdpDest::Host(h, _) => {
                let p = self.switches[sw.0].route[h.0];
                debug_assert_ne!(p, usize::MAX, "no route from {sw} to {h}");
                if p != in_port {
                    self.forward(sw, p, frame);
                }
            }
            UdpDest::Group(g, _) => {
                // By index: forwarding needs `&mut self`, and the list is
                // fixed while the simulation runs.
                for i in 0..self.switches[sw.0].mcast_ports[g.0].len() {
                    let p = self.switches[sw.0].mcast_ports[g.0][i];
                    if p != in_port {
                        self.forward(sw, p, frame.clone());
                    }
                }
            }
        }
    }

    /// Queue `frame` on output port `p` of `sw` and schedule its arrival at
    /// the far end, unless the trunk is down or the port's queue is full.
    fn forward(&mut self, sw: SwitchId, p: usize, frame: Frame) {
        let eligible = self.now + self.cfg.switch.latency;
        let peer = self.switches[sw.0].ports[p]
            .peer
            .expect("forwarding onto an uncabled port");
        if matches!(peer, PortRef::Switch(..))
            && !self.fault_plan.trunk_down.is_empty()
            && self.fault_plan.trunk_is_down(self.now)
        {
            self.note_drop(DropCause::TrunkDown, None);
            return;
        }
        let bytes = frame.frame_bytes();
        let port = &mut self.switches[sw.0].ports[p];
        let link = port.link;
        if port.egress.queued_bytes(eligible) + bytes > self.cfg.switch.queue_bytes {
            self.note_drop(DropCause::SwitchQueueFull, None);
            return;
        }
        let tx = frame.tx_time(link.rate_bps);
        let done = port.egress.enqueue(eligible, tx, bytes);
        let edge = match peer {
            PortRef::Host(h) => Some(h),
            PortRef::Switch(..) => None,
        };
        self.trace.wire_bytes_sent += frame.wire_bytes() as u64;
        self.emit_frame(peer, frame, done, link.prop_delay, edge);
    }

    // ------------------------------------------------------------------
    // Host receive path
    // ------------------------------------------------------------------

    fn frame_at_host(&mut self, host: HostId, frame: &Frame) {
        if !self.fault_plan.host_faults.is_empty() && self.fault_plan.host_crashed(host, self.now) {
            self.note_drop(DropCause::HostDown, Some(host));
            return;
        }
        self.trace.frames_received += 1;
        match frame.dg.dest {
            UdpDest::Host(h, _) => {
                if h != host {
                    // Shared-bus unicast for someone else: the NIC address
                    // filter discards it in hardware at zero host cost.
                    debug_assert_eq!(
                        self.cfg.fabric,
                        FabricKind::SharedBus,
                        "switched fabric misrouted a unicast frame"
                    );
                    return;
                }
            }
            UdpDest::Group(g, _) => {
                if !self.hosts[host.0].memberships.contains(&g) {
                    // Flooded multicast for a group we never joined: the
                    // kernel discards it, costing CPU (paper §3 bullet 1).
                    self.trace.frames_filtered += 1;
                    let at = self.now;
                    self.enqueue_work(host, WorkItem::McastFilter, at);
                    return;
                }
            }
        }

        let key = (frame.dg.src_host, frame.dg.ip_id);
        let total = frame.dg.n_fragments() as u32;
        let h = &mut self.hosts[host.0];
        let complete = match h.reassembly.iter().position(|(k, _)| *k == key) {
            Some(at) => {
                let complete = h.reassembly[at].1.add(frame.index as usize);
                if complete {
                    h.reassembly.swap_remove(at);
                }
                complete
            }
            None => {
                let mut r = Reassembly::new(total);
                let complete = r.add(frame.index as usize);
                if !complete {
                    h.reassembly.push((key, r));
                    let expire = self.now + self.host_params[host.0].reassembly_timeout;
                    self.schedule(
                        expire,
                        Event::ReassemblyExpire {
                            host: id32(host.0),
                            src: id32(key.0 .0),
                            ip_id: key.1,
                        },
                    );
                }
                complete
            }
        };
        if !complete {
            return;
        }

        let p = self.fault_plan.datagram_loss;
        if p > 0.0 && self.rng.gen::<f64>() < p {
            self.note_drop(DropCause::DatagramFault, Some(host));
            return;
        }

        self.deliver_datagram(host, Rc::clone(&frame.dg));
    }

    /// Deliver a fully reassembled datagram to `host`, applying the fault
    /// plan's byzantine modes first: corrupt-and-deliver, duplication and
    /// replay of a stale recorded datagram. Every check is gated on its
    /// knob, so an empty plan draws no randomness here.
    fn deliver_datagram(&mut self, host: HostId, dg: Rc<Datagram>) {
        let mut dg = dg;
        let p = self.fault_plan.corrupt_deliver;
        if p > 0.0 && self.rng.gen::<f64>() < p {
            dg = self.corrupt_datagram(&dg);
            self.trace.byz_corrupt_delivered += 1;
        }
        let p = self.fault_plan.duplicate;
        let copies = if p > 0.0 && self.rng.gen::<f64>() < p {
            self.trace.byz_duplicates += 1;
            2
        } else {
            1
        };
        let p = self.fault_plan.replay;
        if p > 0.0 {
            if !self.replay_ring.is_empty() && self.rng.gen::<f64>() < p {
                let idx = self.rng.gen_range(0..self.replay_ring.len());
                let stale = Rc::clone(&self.replay_ring[idx]);
                self.trace.byz_replays += 1;
                self.deliver_to_socket(host, stale);
            }
            if self.replay_ring.len() >= REPLAY_RING_CAP {
                self.replay_ring.pop_front();
            }
            self.replay_ring.push_back(Rc::clone(&dg));
        }
        for _ in 0..copies {
            self.deliver_to_socket(host, Rc::clone(&dg));
        }
        // Feedback storm: deterministic window schedule, no RNG drawn.
        if !self.fault_plan.feedback_storm.is_empty() {
            let extra = self.fault_plan.storm_amplify(host, self.now);
            for _ in 0..extra {
                self.trace.storm_amplified += 1;
                self.deliver_to_socket(host, Rc::clone(&dg));
            }
        }
    }

    /// Return a copy of `dg` with 1–4 byte positions bit-flipped —
    /// byzantine corruption that passed the NIC's FCS check and reaches
    /// the protocol's decode path. Zero-length payloads pass unchanged.
    fn corrupt_datagram(&mut self, dg: &Datagram) -> Rc<Datagram> {
        let mut payload = dg.payload.to_vec();
        if !payload.is_empty() {
            let flips = self.rng.gen_range(1..=4usize).min(payload.len());
            for _ in 0..flips {
                let at = self.rng.gen_range(0..payload.len());
                let bit = self.rng.gen_range(0u8..8);
                payload[at] ^= 1 << bit;
            }
        }
        Rc::new(Datagram {
            src_host: dg.src_host,
            src_port: dg.src_port,
            dest: dg.dest,
            payload: Bytes::from(payload),
            ip_id: dg.ip_id,
            frag_data: dg.frag_data,
        })
    }

    /// The kernel socket step shared by normal, replayed and forged
    /// deliveries: buffer-space check, then a CPU work item.
    fn deliver_to_socket(&mut self, host: HostId, dg: Rc<Datagram>) {
        let port = dg.dest.port();
        let len = dg.payload.len();
        let sockbuf = self.host_params[host.0].recv_sockbuf;
        let exhausted = !self.fault_plan.sockbuf_exhaust.is_empty()
            && self.fault_plan.sockbuf_exhausted(host, self.now);
        let h = &mut self.hosts[host.0];
        let Some(buffered) = h.socket_mut(port) else {
            // No socket bound: the kernel drops it (ICMP unreachable in
            // real life); invisible to the protocols.
            return;
        };
        if exhausted || *buffered + len > sockbuf {
            self.note_drop(DropCause::SockBufFull, Some(host));
            return;
        }
        *buffered += len;
        let at = self.now;
        self.enqueue_work(host, WorkItem::Deliver(dg), at);
    }

    /// Inject a forged datagram (spoofed source, attacker-chosen bytes)
    /// straight into `host`'s socket, bypassing the wire entirely.
    fn forge_deliver(&mut self, host: HostId, src: HostId, port: u16, payload: Vec<u8>) {
        if !self.fault_plan.host_faults.is_empty() && self.fault_plan.host_crashed(host, self.now) {
            self.note_drop(DropCause::HostDown, Some(host));
            return;
        }
        self.trace.byz_forged += 1;
        let ip_id = self.next_ip_id;
        self.next_ip_id += 1;
        let dg = Rc::new(Datagram {
            src_host: src,
            src_port: 0,
            dest: UdpDest::Host(host, port),
            payload: Bytes::from(payload),
            ip_id,
            frag_data: frame::frag_data_for_mtu(self.cfg.link.mtu),
        });
        self.deliver_to_socket(host, dg);
    }

    // ------------------------------------------------------------------
    // Host CPU
    // ------------------------------------------------------------------

    pub(crate) fn enqueue_work(&mut self, host: HostId, item: WorkItem, at: Time) {
        let h = &mut self.hosts[host.0];
        h.cpu_queue.push_back(item);
        if !h.cpu_active {
            h.cpu_active = true;
            self.schedule(at.max(self.now), Event::CpuDone { host: id32(host.0) });
        }
    }

    fn cpu_dispatch(&mut self, host: HostId) {
        if !self.fault_plan.host_faults.is_empty() {
            if self.fault_plan.host_crashed(host, self.now) {
                // A crashed CPU never runs again: discard its queue.
                let h = &mut self.hosts[host.0];
                h.cpu_queue.clear();
                h.cpu_active = false;
                return;
            }
            if let Some(resume) = self.fault_plan.host_paused_until(host, self.now) {
                // Stalled: hold the pending work until the pause ends.
                self.schedule(resume, Event::CpuDone { host: id32(host.0) });
                return;
            }
        }
        let Some(item) = self.hosts[host.0].cpu_queue.pop_front() else {
            self.hosts[host.0].cpu_active = false;
            return;
        };
        let start = self.now;
        let end = self.run_work_item(host, item, start);
        self.hosts[host.0].cpu_busy_until = end;
        self.hosts[host.0].cpu_busy_accum += end.saturating_since(start);
        self.schedule(end, Event::CpuDone { host: id32(host.0) });
    }

    fn run_work_item(&mut self, host: HostId, item: WorkItem, start: Time) -> Time {
        match item {
            WorkItem::McastFilter => {
                let c = self.host_params[host.0].mcast_filter_cost;
                start + self.jitter_for(host, c)
            }
            WorkItem::Start => self.with_proc(host, start, |p, ctx| p.on_start(ctx)),
            WorkItem::Restart => self.with_proc(host, start, |p, ctx| p.on_restart(ctx)),
            WorkItem::Timer => self.with_proc(host, start, |p, ctx| p.on_timer(ctx)),
            WorkItem::Deliver(dg) => {
                let hp = self.host_params[host.0];
                let len = dg.payload.len();
                let n_frags = dg.n_fragments();
                // recvfrom drains the socket buffer.
                if let Some(b) = self.hosts[host.0].socket_mut(dg.dest.port()) {
                    *b = b.saturating_sub(len);
                }
                let mut cost =
                    hp.recv_syscall + hp.recv_per_fragment.saturating_mul(n_frags as u64);
                cost += Duration::from_nanos(hp.recv_per_byte_ns * len as u64);
                let start = start + self.jitter_for(host, cost);
                self.trace.datagrams_delivered += 1;
                let in_dg = DatagramIn {
                    src_host: dg.src_host,
                    src_port: dg.src_port,
                    dest: dg.dest,
                    payload: dg.payload.clone(),
                };
                self.with_proc(host, start, |p, ctx| p.on_datagram(ctx, in_dg))
            }
        }
    }

    fn with_proc<F>(&mut self, host: HostId, start: Time, f: F) -> Time
    where
        F: FnOnce(&mut dyn Process, &mut Ctx<'_>),
    {
        let mut proc_ = self.procs[host.0].take().expect("no process on host");
        let mut ctx = Ctx {
            sim: self,
            host,
            cursor: start,
        };
        f(proc_.as_mut(), &mut ctx);
        let end = ctx.cursor;
        self.procs[host.0] = Some(proc_);
        end
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    pub(crate) fn set_timer(&mut self, host: HostId, at: Time) {
        let h = &mut self.hosts[host.0];
        h.timer_gen += 1;
        h.timer_armed = true;
        let gen = h.timer_gen;
        self.schedule(
            at,
            Event::TimerFire {
                host: id32(host.0),
                gen,
            },
        );
    }

    pub(crate) fn clear_timer(&mut self, host: HostId) {
        let h = &mut self.hosts[host.0];
        h.timer_gen += 1;
        h.timer_armed = false;
    }

    fn timer_fire(&mut self, host: HostId, gen: u64) {
        if !self.fault_plan.host_faults.is_empty() && self.fault_plan.host_crashed(host, self.now) {
            return;
        }
        let h = &mut self.hosts[host.0];
        if h.timer_armed && h.timer_gen == gen {
            h.timer_armed = false;
            let at = self.now;
            self.enqueue_work(host, WorkItem::Timer, at);
        }
    }

    // ------------------------------------------------------------------
    // Shared bus (CSMA/CD)
    // ------------------------------------------------------------------

    fn bus_enqueue(&mut self, host: HostId, frame: Frame, at: Time) {
        assert_eq!(self.cfg.fabric, FabricKind::SharedBus);
        self.bus.txq[host.0].push_back(frame);
        if !self.bus.attempt_pending[host.0] {
            self.bus.attempt_pending[host.0] = true;
            self.schedule(at.max(self.now), Event::BusAttempt { host: id32(host.0) });
        }
    }

    fn bus_attempt(&mut self, host: HostId) {
        self.bus.attempt_pending[host.0] = false;
        if self.bus.txq[host.0].is_empty() {
            return;
        }
        if self.bus.busy_until > self.now {
            // 1-persistent carrier sense: try again the moment the medium
            // goes idle.
            self.bus.attempt_pending[host.0] = true;
            let at = self.bus.busy_until;
            self.schedule(at, Event::BusAttempt { host: id32(host.0) });
            return;
        }
        if self.bus.contenders.contains(&host) {
            return;
        }
        self.bus.contenders.push(host);
        if self.bus.resolve_at.is_none() {
            let window = self.bus.contention_window(self.cfg.link.prop_delay);
            let at = self.now + window;
            self.bus.resolve_at = Some(at);
            self.schedule(at, Event::BusResolve);
        }
    }

    fn bus_resolve(&mut self) {
        self.bus.resolve_at = None;
        let contenders = std::mem::take(&mut self.bus.contenders);
        match contenders.len() {
            0 => {}
            1 => {
                let host = contenders[0];
                let Some(frame) = self.bus.txq[host.0].pop_front() else {
                    return;
                };
                self.bus.attempts[host.0] = 0;
                let tx = frame.tx_time(self.cfg.link.rate_bps);
                let done = self.now + tx;
                self.bus.busy_until = done;
                self.trace.wire_bytes_sent += frame.wire_bytes() as u64;

                let p = self.fault_plan.frame_loss;
                let lost = p > 0.0 && self.rng.gen::<f64>() < p;
                if lost {
                    self.note_drop(DropCause::WireFault, Some(host));
                } else {
                    let at = done + self.cfg.link.prop_delay;
                    for h in 0..self.hosts.len() {
                        if HostId(h) != host {
                            self.schedule_frame(PortRef::Host(HostId(h)), at, frame.clone());
                        }
                    }
                }
                if !self.bus.txq[host.0].is_empty() {
                    self.bus.attempt_pending[host.0] = true;
                    self.schedule(done, Event::BusAttempt { host: id32(host.0) });
                }
            }
            _ => {
                // Collision: jam, then truncated binary exponential backoff.
                self.trace.collisions += 1;
                let jam_end = self.now + BusState::JAM_TIME;
                self.bus.busy_until = jam_end;
                for host in contenders {
                    self.bus.attempts[host.0] += 1;
                    if self.bus.attempts[host.0] > BusState::MAX_ATTEMPTS {
                        self.bus.txq[host.0].pop_front();
                        self.note_drop(DropCause::ExcessiveCollisions, Some(host));
                        self.bus.attempts[host.0] = 0;
                        if self.bus.txq[host.0].is_empty() {
                            continue;
                        }
                    }
                    let exp = (self.bus.attempts[host.0]).min(10);
                    let slots = self.rng.gen_range(0..(1u64 << exp));
                    let at = jam_end + BusState::SLOT_TIME.saturating_mul(slots);
                    self.bus.attempt_pending[host.0] = true;
                    self.schedule(at, Event::BusAttempt { host: id32(host.0) });
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Routing and randomness
    // ------------------------------------------------------------------

    fn finalize_routes(&mut self) {
        if self.cfg.fabric == FabricKind::Switched {
            for s in 0..self.switches.len() {
                let mut route = vec![usize::MAX; self.hosts.len()];
                for p in 0..self.switches[s].ports.len() {
                    let mut seen = vec![false; self.switches.len()];
                    seen[s] = true;
                    for h in self.reachable_hosts(SwitchId(s), p, &mut seen) {
                        assert_eq!(
                            route[h.0],
                            usize::MAX,
                            "host {h} reachable through two ports of sw{s}: topology has a loop"
                        );
                        route[h.0] = p;
                    }
                }
                let sw = &self.switches[s];
                let mcast_ports = self
                    .groups
                    .iter()
                    .map(|members| {
                        let mut ports: Vec<usize> = if self.cfg.switch.igmp_snooping {
                            members.iter().map(|m| route[m.0]).collect()
                        } else {
                            (0..sw.ports.len()).collect()
                        };
                        ports.retain(|&p| p != usize::MAX && sw.ports[p].peer.is_some());
                        ports.sort_unstable();
                        ports.dedup();
                        ports
                    })
                    .collect();
                self.switches[s].route = route;
                self.switches[s].mcast_ports = mcast_ports;
            }
        }
        self.routes_dirty = false;
    }

    fn reachable_hosts(&self, sw: SwitchId, port: usize, seen: &mut [bool]) -> Vec<HostId> {
        match self.switches[sw.0].ports[port].peer {
            None => Vec::new(),
            Some(PortRef::Host(h)) => vec![h],
            Some(PortRef::Switch(s2, back)) => {
                assert!(!seen[s2.0], "switch loop detected at {s2}");
                seen[s2.0] = true;
                let mut out = Vec::new();
                for p in 0..self.switches[s2.0].ports.len() {
                    if p != back {
                        out.extend(self.reachable_hosts(s2, p, seen));
                    }
                }
                out
            }
        }
    }

    /// Apply the host's configured CPU jitter to a nominal cost.
    pub(crate) fn jitter(&mut self, host: HostId, d: Duration) -> Duration {
        self.jitter_for(host, d)
    }

    fn jitter_for(&mut self, host: HostId, d: Duration) -> Duration {
        let mut d = d;
        if !self.fault_plan.cpu_load.is_empty() {
            let f = self.fault_plan.cpu_load_factor(host, self.now);
            if f != 1.0 {
                d = Duration::from_nanos((d.as_nanos() as f64 * f).round() as u64);
            }
        }
        let j = self.host_params[host.0].cpu_jitter;
        if j == 0.0 || d == Duration::ZERO {
            return d;
        }
        let f = 1.0 + j * (self.rng.gen::<f64>() * 2.0 - 1.0);
        Duration::from_nanos((d.as_nanos() as f64 * f).round().max(0.0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_restart_zeroes_every_socket() {
        let mut sim = Sim::new(SimConfig::default(), 1);
        let h = sim.add_host();
        for port in [7, 8, 9] {
            sim.bind_port(h, port);
            *sim.hosts[h.0].socket_mut(port).expect("just bound") = 1_000 + port as usize;
        }
        sim.host_restart(h);
        assert_eq!(sim.hosts[h.0].sockets, [(7, 0), (8, 0), (9, 0)]);
    }

    struct SendOnce(UdpDest);
    impl Process for SendOnce {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(self.0, Bytes::from_static(b"to everyone on the wire"));
        }
    }
    struct Heard(Rc<std::cell::RefCell<Vec<HostId>>>);
    impl Process for Heard {
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, _dg: DatagramIn) {
            self.0.borrow_mut().push(ctx.host());
        }
    }

    #[test]
    fn a_bus_broadcast_is_one_queue_pop_and_arrives_in_host_order() {
        let cfg = SimConfig {
            fabric: FabricKind::SharedBus,
            ..SimConfig::default()
        };
        let mut sim = Sim::new(cfg, 1);
        let hosts = crate::topology::shared_bus(&mut sim, 6);
        let group = sim.create_group(&hosts[1..]);
        let heard = Rc::new(std::cell::RefCell::new(Vec::new()));
        sim.spawn(hosts[0], 9, Box::new(SendOnce(UdpDest::group(group, 9))));
        for &h in &hosts[1..] {
            sim.spawn(h, 9, Box::new(Heard(Rc::clone(&heard))));
        }
        // `run_until`'s loop, counting what it pops.
        sim.finalize_routes();
        let (mut pops, mut arrival_pops) = (0, 0);
        while let Some((at, ev)) = sim.queue.pop_due(Time::MAX) {
            sim.now = at;
            pops += 1;
            if matches!(ev, Event::FrameAtHost { .. }) {
                arrival_pops += 1;
                let before = sim.trace.frames_received;
                sim.dispatch(ev);
                assert_eq!(
                    sim.trace.frames_received - before,
                    5,
                    "one pop, five arrivals"
                );
            } else {
                sim.dispatch(ev);
            }
        }
        assert_eq!(arrival_pops, 1);
        assert!(pops > arrival_pops, "CPU and bus events were popped too");
        assert_eq!(*heard.borrow(), hosts[1..]);
    }
}
