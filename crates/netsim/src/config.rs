//! Simulation parameters.
//!
//! Defaults reproduce the paper's testbed: 100 Mbit/s switched Ethernet,
//! Pentium III 650 MHz class end hosts running a user-space UDP protocol
//! stack on Linux 2.2. The calibration rationale for each constant lives in
//! `simrun::calibration` and EXPERIMENTS.md.

use crate::ids::HostId;
use rmwire::{Duration, Time};

fn assert_prob(p: f64) {
    assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
}

/// Physical-layer parameters of a point-to-point full-duplex link (or of
/// the shared bus when [`FabricKind::SharedBus`] is selected).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Raw signalling rate in bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub prop_delay: Duration,
    /// Maximum IP packet size per Ethernet frame (1500 standard; 9000 for
    /// jumbo frames).
    pub mtu: usize,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams {
            // 100BASE-TX, a few tens of metres of cable plus PHY latency.
            rate_bps: 100_000_000,
            prop_delay: Duration::from_micros(1),
            mtu: 1500,
        }
    }
}

/// Parameters of a store-and-forward Ethernet switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchParams {
    /// Forwarding latency added after a frame is fully received, before it
    /// is eligible for transmission on the output port.
    pub latency: Duration,
    /// Capacity of each output-port queue in bytes; a frame that does not
    /// fit is tail-dropped.
    pub queue_bytes: usize,
    /// When `true` the switch forwards multicast frames only toward group
    /// members (IGMP snooping); when `false` it floods them on every port
    /// except the ingress, like the paper's unmanaged 3Com switches.
    pub igmp_snooping: bool,
}

impl Default for SwitchParams {
    fn default() -> Self {
        SwitchParams {
            latency: Duration::from_micros(10),
            queue_bytes: 256 * 1024,
            igmp_snooping: false,
        }
    }
}

/// Per-host parameters: the CPU cost model and kernel buffer sizes.
///
/// The CPU is modelled as a serial resource; every datagram sent or
/// received charges it. All costs are multiplied by `(1 ± jitter)` with a
/// deterministic seeded jitter to model the paper's observation that
/// "communication in Ethernet can sometimes be quite random".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostParams {
    /// Fixed cost of a `sendto` system call (user/kernel crossing,
    /// socket lookup, header construction).
    pub send_syscall: Duration,
    /// Kernel cost per transmitted fragment (skb handling, driver ring).
    pub send_per_fragment: Duration,
    /// Kernel copy cost per transmitted byte (user buffer into kernel).
    pub send_per_byte_ns: u64,
    /// Fixed cost of a `recvfrom` system call returning one datagram.
    pub recv_syscall: Duration,
    /// Kernel cost per received fragment (interrupt, IP input, reassembly).
    pub recv_per_fragment: Duration,
    /// Kernel copy cost per received byte (kernel buffer into user).
    pub recv_per_byte_ns: u64,
    /// Kernel cost to discard one flooded multicast frame the host did not
    /// subscribe to (the paper's "extra CPU overhead for unintended
    /// receivers"). NIC-level perfect filtering sets this to zero.
    pub mcast_filter_cost: Duration,
    /// Cost of reading the clock (`gettimeofday`), charged through
    /// [`crate::process::Ctx::charge_clock_read`].
    pub clock_read: Duration,
    /// UDP receive socket buffer in bytes; a fully reassembled datagram
    /// that does not fit is dropped (the paper's dominant loss mode).
    pub recv_sockbuf: usize,
    /// Bytes the NIC transmit path will queue before `sendto` blocks.
    pub send_sockbuf: usize,
    /// Relative jitter applied to every CPU charge, e.g. `0.05` for ±5 %.
    pub cpu_jitter: f64,
    /// Timeout after which an incomplete IP reassembly is discarded.
    pub reassembly_timeout: Duration,
}

impl Default for HostParams {
    fn default() -> Self {
        HostParams {
            send_syscall: Duration::from_micros(18),
            send_per_fragment: Duration::from_micros(3),
            send_per_byte_ns: 10,
            recv_syscall: Duration::from_micros(40),
            recv_per_fragment: Duration::from_micros(3),
            recv_per_byte_ns: 10,
            mcast_filter_cost: Duration::from_micros(2),
            clock_read: Duration::from_nanos(700),
            recv_sockbuf: 256 * 1024,
            send_sockbuf: 32 * 1024,
            cpu_jitter: 0.04,
            reassembly_timeout: Duration::from_millis(500),
        }
    }
}

/// A two-state Gilbert–Elliott burst-loss channel: the link alternates
/// between a good state (no loss) and a bad state (every frame lost), with
/// geometric sojourn times chosen so the long-run loss rate is `avg_loss`
/// and the mean burst length is `mean_burst_len` frames. One independent
/// channel runs per host access link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Long-run fraction of frames lost, in `(0, 1)`.
    pub avg_loss: f64,
    /// Mean number of consecutive frames lost per bad-state visit (>= 1).
    pub mean_burst_len: f64,
}

impl GilbertElliott {
    /// Validated constructor.
    pub fn new(avg_loss: f64, mean_burst_len: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&avg_loss) && avg_loss > 0.0,
            "avg_loss must be in (0, 1): {avg_loss}"
        );
        assert!(
            mean_burst_len >= 1.0 && mean_burst_len.is_finite(),
            "mean_burst_len must be >= 1: {mean_burst_len}"
        );
        GilbertElliott {
            avg_loss,
            mean_burst_len,
        }
    }

    /// Per-frame probability of leaving the bad state.
    pub(crate) fn p_bad_to_good(&self) -> f64 {
        1.0 / self.mean_burst_len
    }

    /// Per-frame probability of entering the bad state, derived from the
    /// stationary distribution: `pi_bad = p_gb / (p_gb + p_bg) = avg_loss`.
    pub(crate) fn p_good_to_bad(&self) -> f64 {
        self.avg_loss * self.p_bad_to_good() / (1.0 - self.avg_loss)
    }
}

/// A scheduled window during which one host's access link drops every
/// frame in both directions (cable pull / port flap).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDownWindow {
    /// The host whose uplink goes dark.
    pub host: HostId,
    /// First instant of the outage.
    pub from: Time,
    /// First instant the link works again.
    pub until: Time,
}

/// What happens to a host at a scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HostFaultKind {
    /// The host halts permanently: its CPU stops, pending work is
    /// discarded and every frame addressed to it vanishes.
    Crash,
    /// The host's CPU stalls until `until` (GC pause, overload, swap
    /// storm); frames keep arriving into its socket buffers meanwhile.
    Pause {
        /// When the CPU resumes.
        until: Time,
    },
    /// The host halts at `at` like [`HostFaultKind::Crash`], loses all
    /// state (socket buffers, reassembly, timers), then reboots at `until`
    /// with a fresh process ([`crate::process::Process::on_restart`]).
    CrashRestart {
        /// When the host comes back up.
        until: Time,
    },
}

/// One scheduled host fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostFault {
    /// The afflicted host.
    pub host: HostId,
    /// When the fault strikes.
    pub at: Time,
    /// What it does.
    pub kind: HostFaultKind,
}

/// A scheduled feedback-storm window: every datagram arriving at `target`
/// over `[from, until)` is delivered `amplify` extra times into its
/// socket. Aimed at a protocol's sender host — which receives only
/// control traffic — this reproduces an ACK/NAK implosion: one loss event
/// fanned out into a flood of duplicate feedback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormWindow {
    /// The host whose inbound datagrams are amplified.
    pub target: HostId,
    /// First instant of the storm.
    pub from: Time,
    /// First instant delivery is normal again.
    pub until: Time,
    /// Extra copies delivered per datagram (>= 1).
    pub amplify: u32,
}

/// A scheduled CPU-saturation window: every CPU charge on `host` over
/// `[from, until)` is multiplied by `factor` (>= 1). Models a receiver
/// starved by a co-resident workload — it stays correct but falls behind,
/// the trigger condition for sender-side slow-receiver quarantine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuLoadWindow {
    /// The saturated host.
    pub host: HostId,
    /// First instant of the load.
    pub from: Time,
    /// First instant the CPU runs at full speed again.
    pub until: Time,
    /// Multiplier applied to every CPU charge (>= 1).
    pub factor: f64,
}

/// A frame synthesized by an attacker and injected straight into one
/// host's receive path at a scheduled instant. The payload bytes are
/// attacker-chosen, so any rank/type/sequence combination can be forged —
/// including valid-looking control packets the protocol never sent.
#[derive(Debug, Clone, PartialEq)]
pub struct ForgeFrame {
    /// When the forged frame arrives.
    pub at: Time,
    /// The host whose socket receives it.
    pub dest: HostId,
    /// Destination UDP port (must match a bound socket to be seen).
    pub port: u16,
    /// The spoofed source host.
    pub src: HostId,
    /// The raw datagram bytes, exactly as the process will receive them.
    pub payload: Vec<u8>,
}

/// Every fault netsim injects, as one deterministic, seeded schedule:
/// uniform wire and datagram loss and duplication, per-link loss, burst
/// loss, reordering, corruption, link outages, host crash/pause faults
/// and the byzantine modes. Installed on a simulation with
/// [`crate::Sim::set_fault_plan`]. The default (empty) plan is the
/// paper's wired LAN ("the transmission error rate is very low ...
/// errors almost never happen"): it injects nothing and consumes no
/// randomness, so runs stay bit-identical to a plan-free simulator.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Probability that any individual frame is lost on the wire.
    pub frame_loss: f64,
    /// Probability that a reassembled datagram is dropped at the receiving
    /// host (models NIC/driver drops beyond socket-buffer overflow).
    pub datagram_loss: f64,
    /// Probability that a frame is duplicated on the wire (switch or
    /// driver retransmit artifacts; protocols must tolerate duplicates).
    pub frame_dup: f64,
    /// `(host, p)`: uniform frame loss on that host's access link (both
    /// directions), on top of [`FaultPlan::frame_loss`].
    pub link_loss: Vec<(HostId, f64)>,
    /// Burst-loss channel applied on every host access link.
    pub burst: Option<GilbertElliott>,
    /// Probability that a frame is held back and arrives late — after
    /// frames sent behind it (out-of-order delivery).
    pub reorder: f64,
    /// How long a reordered frame is held beyond its normal arrival.
    pub reorder_delay: Duration,
    /// Probability that a frame is corrupted in flight; the receiving NIC
    /// discards it on the FCS check.
    pub corrupt: f64,
    /// Scheduled link outages.
    pub link_down: Vec<LinkDownWindow>,
    /// Scheduled host crashes and pauses.
    pub host_faults: Vec<HostFault>,
    /// Scheduled inter-switch trunk outages `[from, until)`. While a
    /// window is open every frame crossing a switch-to-switch link is
    /// dropped, partitioning the hosts into per-switch islands; access
    /// links keep working, so hosts on each side still talk locally.
    pub trunk_down: Vec<(Time, Time)>,
    /// Byzantine corruption: probability that a reassembled datagram is
    /// *delivered* with 1–4 flipped bytes instead of being FCS-dropped
    /// like [`FaultPlan::corrupt`]. The corrupted bytes reach the
    /// protocol's decode path, exercising its integrity defences.
    pub corrupt_deliver: f64,
    /// Probability that a reassembled datagram is delivered twice to the
    /// destination process (beyond wire-level `frame_dup`).
    pub duplicate: f64,
    /// Replay attack: probability that, alongside a normal delivery, a
    /// stale previously-delivered datagram is re-injected into the same
    /// host's socket. The simulator keeps a bounded ring of recent
    /// datagrams to replay from.
    pub replay: f64,
    /// Forged frames injected at scheduled instants.
    pub forge: Vec<ForgeFrame>,
    /// Scheduled feedback storms (control-traffic amplification at one
    /// host, typically the sender).
    pub feedback_storm: Vec<StormWindow>,
    /// Scheduled per-host CPU saturation windows.
    pub cpu_load: Vec<CpuLoadWindow>,
    /// `(host, from, until)`: while a window is open every datagram
    /// arriving at `host` is dropped as if its receive socket buffer were
    /// full (counted under [`crate::DropCause::SockBufFull`]).
    pub sockbuf_exhaust: Vec<(HostId, Time, Time)>,
}

impl FaultPlan {
    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.frame_loss == 0.0
            && self.datagram_loss == 0.0
            && self.frame_dup == 0.0
            && self.link_loss.is_empty()
            && self.burst.is_none()
            && self.reorder == 0.0
            && self.corrupt == 0.0
            && self.link_down.is_empty()
            && self.host_faults.is_empty()
            && self.trunk_down.is_empty()
            && self.corrupt_deliver == 0.0
            && self.duplicate == 0.0
            && self.replay == 0.0
            && self.forge.is_empty()
            && self.feedback_storm.is_empty()
            && self.cpu_load.is_empty()
            && self.sockbuf_exhaust.is_empty()
    }

    /// Lose each frame on the wire with probability `p`.
    pub fn with_frame_loss(mut self, p: f64) -> Self {
        assert_prob(p);
        self.frame_loss = p;
        self
    }

    /// Drop each reassembled datagram at the receiving host with
    /// probability `p`.
    pub fn with_datagram_loss(mut self, p: f64) -> Self {
        assert_prob(p);
        self.datagram_loss = p;
        self
    }

    /// Duplicate each frame on the wire with probability `p`.
    pub fn with_frame_dup(mut self, p: f64) -> Self {
        assert_prob(p);
        self.frame_dup = p;
        self
    }

    /// Add uniform loss on `host`'s access link.
    pub fn with_link_loss(mut self, host: HostId, p: f64) -> Self {
        assert_prob(p);
        self.link_loss.push((host, p));
        self
    }

    /// Install a Gilbert–Elliott burst-loss channel on every access link.
    pub fn with_burst(mut self, avg_loss: f64, mean_burst_len: f64) -> Self {
        self.burst = Some(GilbertElliott::new(avg_loss, mean_burst_len));
        self
    }

    /// Delay each frame with probability `p` by `delay` (reordering it
    /// past frames sent behind it).
    pub fn with_reorder(mut self, p: f64, delay: Duration) -> Self {
        assert_prob(p);
        assert!(delay > Duration::ZERO, "reorder delay must be positive");
        self.reorder = p;
        self.reorder_delay = delay;
        self
    }

    /// Corrupt each frame with probability `p` (dropped at the NIC).
    pub fn with_corrupt(mut self, p: f64) -> Self {
        assert_prob(p);
        self.corrupt = p;
        self
    }

    /// Take `host`'s access link down over `[from, until)`.
    pub fn with_link_down(mut self, host: HostId, from: Time, until: Time) -> Self {
        assert!(from < until, "empty link-down window");
        self.link_down.push(LinkDownWindow { host, from, until });
        self
    }

    /// Crash `host` permanently at `at`.
    pub fn with_crash(mut self, host: HostId, at: Time) -> Self {
        self.host_faults.push(HostFault {
            host,
            at,
            kind: HostFaultKind::Crash,
        });
        self
    }

    /// Crash `host` at `at` and reboot it (state wiped) at `until`.
    pub fn with_crash_restart(mut self, host: HostId, at: Time, until: Time) -> Self {
        assert!(at < until, "empty crash-restart window");
        self.host_faults.push(HostFault {
            host,
            at,
            kind: HostFaultKind::CrashRestart { until },
        });
        self
    }

    /// Sever every inter-switch trunk over `[from, until)`.
    pub fn with_trunk_down(mut self, from: Time, until: Time) -> Self {
        assert!(from < until, "empty trunk-down window");
        self.trunk_down.push((from, until));
        self
    }

    /// Deliver each datagram corrupted (bytes flipped, not dropped) with
    /// probability `p`.
    pub fn with_corrupt_deliver(mut self, p: f64) -> Self {
        assert_prob(p);
        self.corrupt_deliver = p;
        self
    }

    /// Deliver each datagram twice with probability `p`.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        assert_prob(p);
        self.duplicate = p;
        self
    }

    /// Re-inject a stale recorded datagram alongside a delivery with
    /// probability `p`.
    pub fn with_replay(mut self, p: f64) -> Self {
        assert_prob(p);
        self.replay = p;
        self
    }

    /// Inject a forged datagram (spoofed source `src`, attacker-chosen
    /// `payload`) into `dest`'s socket on `port` at `at`.
    pub fn with_forge(
        mut self,
        at: Time,
        dest: HostId,
        port: u16,
        src: HostId,
        payload: Vec<u8>,
    ) -> Self {
        self.forge.push(ForgeFrame {
            at,
            dest,
            port,
            src,
            payload,
        });
        self
    }

    /// Amplify every datagram arriving at `target` over `[from, until)`
    /// by `amplify` extra socket deliveries (an ACK/NAK implosion when
    /// aimed at a sender host).
    pub fn with_feedback_storm(
        mut self,
        target: HostId,
        from: Time,
        until: Time,
        amplify: u32,
    ) -> Self {
        assert!(from < until, "empty feedback-storm window");
        assert!(amplify >= 1, "storm amplification must be >= 1");
        self.feedback_storm.push(StormWindow {
            target,
            from,
            until,
            amplify,
        });
        self
    }

    /// Multiply every CPU charge on `host` by `factor` over `[from,
    /// until)`.
    pub fn with_cpu_load(mut self, host: HostId, from: Time, until: Time, factor: f64) -> Self {
        assert!(from < until, "empty cpu-load window");
        assert!(
            factor >= 1.0 && factor.is_finite(),
            "cpu-load factor must be >= 1: {factor}"
        );
        self.cpu_load.push(CpuLoadWindow {
            host,
            from,
            until,
            factor,
        });
        self
    }

    /// Run `host` `factor`× slower for the whole simulation — the
    /// canonical slow-receiver setup for quarantine experiments.
    pub fn with_slow_host(self, host: HostId, factor: f64) -> Self {
        self.with_cpu_load(host, Time::ZERO, Time::MAX, factor)
    }

    /// Drop every datagram arriving at `host` over `[from, until)` as a
    /// socket-buffer-full loss.
    pub fn with_sockbuf_exhaust(mut self, host: HostId, from: Time, until: Time) -> Self {
        assert!(from < until, "empty sockbuf-exhaust window");
        self.sockbuf_exhaust.push((host, from, until));
        self
    }

    /// Stall `host`'s CPU over `[from, until)`.
    pub fn with_pause(mut self, host: HostId, from: Time, until: Time) -> Self {
        assert!(from < until, "empty pause window");
        self.host_faults.push(HostFault {
            host,
            at: from,
            kind: HostFaultKind::Pause { until },
        });
        self
    }

    /// Uniform loss configured for `host`'s access link (sum of entries).
    pub(crate) fn link_loss_for(&self, host: HostId) -> f64 {
        self.link_loss
            .iter()
            .filter(|&&(h, _)| h == host)
            .map(|&(_, p)| p)
            .sum::<f64>()
            .min(1.0)
    }

    /// Is `host`'s access link scheduled down at `now`?
    pub(crate) fn link_is_down(&self, host: HostId, now: Time) -> bool {
        self.link_down
            .iter()
            .any(|w| w.host == host && w.from <= now && now < w.until)
    }

    /// Has `host` crashed by `now`? Permanent crashes count forever;
    /// crash-restart windows count only until the reboot instant.
    pub(crate) fn host_crashed(&self, host: HostId, now: Time) -> bool {
        self.host_faults.iter().any(|f| {
            f.host == host
                && f.at <= now
                && match f.kind {
                    HostFaultKind::Crash => true,
                    HostFaultKind::CrashRestart { until } => now < until,
                    HostFaultKind::Pause { .. } => false,
                }
        })
    }

    /// Every `(host, reboot_instant)` pair in the plan, for scheduling
    /// restart events when the plan is installed.
    pub(crate) fn restarts(&self) -> impl Iterator<Item = (HostId, Time)> + '_ {
        self.host_faults.iter().filter_map(|f| match f.kind {
            HostFaultKind::CrashRestart { until } => Some((f.host, until)),
            _ => None,
        })
    }

    /// Are the inter-switch trunks scheduled down at `now`?
    pub(crate) fn trunk_is_down(&self, now: Time) -> bool {
        self.trunk_down
            .iter()
            .any(|&(from, until)| from <= now && now < until)
    }

    /// Extra socket deliveries owed to `host` at `now` (sum over open
    /// storm windows).
    pub(crate) fn storm_amplify(&self, host: HostId, now: Time) -> u64 {
        self.feedback_storm
            .iter()
            .filter(|w| w.target == host && w.from <= now && now < w.until)
            .map(|w| u64::from(w.amplify))
            .sum()
    }

    /// Combined CPU-charge multiplier for `host` at `now` (product over
    /// open load windows; `1.0` outside every window).
    pub(crate) fn cpu_load_factor(&self, host: HostId, now: Time) -> f64 {
        self.cpu_load
            .iter()
            .filter(|w| w.host == host && w.from <= now && now < w.until)
            .map(|w| w.factor)
            .product()
    }

    /// Is `host`'s receive socket buffer scheduled exhausted at `now`?
    pub(crate) fn sockbuf_exhausted(&self, host: HostId, now: Time) -> bool {
        self.sockbuf_exhaust
            .iter()
            .any(|&(h, from, until)| h == host && from <= now && now < until)
    }

    /// The instant `host`'s CPU next runs again, when paused at `now`.
    pub(crate) fn host_paused_until(&self, host: HostId, now: Time) -> Option<Time> {
        self.host_faults
            .iter()
            .filter_map(|f| match f.kind {
                HostFaultKind::Pause { until } if f.host == host && f.at <= now && now < until => {
                    Some(until)
                }
                _ => None,
            })
            .max()
    }
}

/// Which layer-2 fabric connects the hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FabricKind {
    /// Full-duplex store-and-forward switches (the paper's testbed).
    #[default]
    Switched,
    /// A single half-duplex CSMA/CD bus shared by every host (the paper's
    /// "traditional LANs use shared media" discussion).
    SharedBus,
}

/// Top-level simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimConfig {
    /// Link parameters applied to every link.
    pub link: LinkParams,
    /// Switch parameters applied to every switch.
    pub switch: SwitchParams,
    /// Host parameters applied to every host.
    pub host: HostParams,
    /// Fabric selection.
    pub fabric: FabricKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_testbed() {
        let c = SimConfig::default();
        assert_eq!(c.link.rate_bps, 100_000_000);
        assert_eq!(c.fabric, FabricKind::Switched);
        assert!(!c.switch.igmp_snooping);
    }

    #[test]
    fn uniform_rates_make_the_plan_non_empty() {
        let plan = FaultPlan::default()
            .with_frame_loss(0.01)
            .with_datagram_loss(0.02)
            .with_frame_dup(0.03);
        assert_eq!(
            (plan.frame_loss, plan.datagram_loss, plan.frame_dup),
            (0.01, 0.02, 0.03)
        );
        for plan in [
            FaultPlan::default().with_frame_loss(0.1),
            FaultPlan::default().with_datagram_loss(0.1),
            FaultPlan::default().with_frame_dup(0.1),
        ] {
            assert!(!plan.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn frame_loss_probability_validated() {
        let _ = FaultPlan::default().with_frame_loss(1.5);
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn dup_probability_validated() {
        let _ = FaultPlan::default().with_frame_dup(-0.1);
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn datagram_probability_validated() {
        let _ = FaultPlan::default().with_datagram_loss(2.0);
    }

    #[test]
    fn gilbert_elliott_transition_rates() {
        let ge = GilbertElliott::new(0.05, 4.0);
        let p_bg = ge.p_bad_to_good();
        let p_gb = ge.p_good_to_bad();
        assert!((p_bg - 0.25).abs() < 1e-12);
        // Stationary bad-state probability equals the target loss rate.
        let pi_bad = p_gb / (p_gb + p_bg);
        assert!((pi_bad - 0.05).abs() < 1e-12);
    }

    #[test]
    fn fault_plan_schedules() {
        let h = HostId(3);
        let plan = FaultPlan::default()
            .with_link_loss(h, 0.02)
            .with_link_down(h, Time::from_millis(10), Time::from_millis(20))
            .with_crash(HostId(1), Time::from_millis(5))
            .with_pause(HostId(2), Time::from_millis(1), Time::from_millis(2));
        assert!(!plan.is_empty());
        assert_eq!(plan.link_loss_for(h), 0.02);
        assert_eq!(plan.link_loss_for(HostId(0)), 0.0);
        assert!(!plan.link_is_down(h, Time::from_millis(9)));
        assert!(plan.link_is_down(h, Time::from_millis(10)));
        assert!(plan.link_is_down(h, Time::from_millis(19)));
        assert!(!plan.link_is_down(h, Time::from_millis(20)));
        assert!(!plan.host_crashed(HostId(1), Time::from_millis(4)));
        assert!(plan.host_crashed(HostId(1), Time::from_millis(5)));
        assert_eq!(
            plan.host_paused_until(HostId(2), Time::from_millis(1)),
            Some(Time::from_millis(2))
        );
        assert_eq!(
            plan.host_paused_until(HostId(2), Time::from_millis(2)),
            None
        );
        assert!(FaultPlan::default().is_empty());
    }

    #[test]
    fn crash_restart_and_trunk_windows() {
        let plan = FaultPlan::default()
            .with_crash_restart(HostId(4), Time::from_millis(10), Time::from_millis(30))
            .with_trunk_down(Time::from_millis(50), Time::from_millis(80));
        assert!(!plan.is_empty());
        // Crashed only inside [at, until); alive again after reboot.
        assert!(!plan.host_crashed(HostId(4), Time::from_millis(9)));
        assert!(plan.host_crashed(HostId(4), Time::from_millis(10)));
        assert!(plan.host_crashed(HostId(4), Time::from_millis(29)));
        assert!(!plan.host_crashed(HostId(4), Time::from_millis(30)));
        assert_eq!(
            plan.restarts().collect::<Vec<_>>(),
            vec![(HostId(4), Time::from_millis(30))]
        );
        assert!(!plan.trunk_is_down(Time::from_millis(49)));
        assert!(plan.trunk_is_down(Time::from_millis(50)));
        assert!(plan.trunk_is_down(Time::from_millis(79)));
        assert!(!plan.trunk_is_down(Time::from_millis(80)));
    }

    #[test]
    fn byzantine_knobs_make_the_plan_non_empty() {
        assert!(!FaultPlan::default().with_corrupt_deliver(0.1).is_empty());
        assert!(!FaultPlan::default().with_duplicate(0.1).is_empty());
        assert!(!FaultPlan::default().with_replay(0.1).is_empty());
        let plan = FaultPlan::default().with_forge(
            Time::from_millis(1),
            HostId(0),
            7000,
            HostId(1),
            vec![0xde, 0xad],
        );
        assert!(!plan.is_empty());
        assert_eq!(plan.forge.len(), 1);
        assert_eq!(plan.forge[0].payload, vec![0xde, 0xad]);
        // Zeroed knobs keep the plan empty (determinism contract).
        assert!(FaultPlan::default()
            .with_corrupt_deliver(0.0)
            .with_duplicate(0.0)
            .with_replay(0.0)
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn byzantine_probability_validated() {
        let _ = FaultPlan::default().with_corrupt_deliver(1.5);
    }

    #[test]
    #[should_panic(expected = "empty trunk-down window")]
    fn trunk_down_window_validated() {
        let t = Time::from_millis(5);
        let _ = FaultPlan::default().with_trunk_down(t, t);
    }

    #[test]
    #[should_panic(expected = "empty link-down window")]
    fn link_down_window_validated() {
        let t = Time::from_millis(5);
        let _ = FaultPlan::default().with_link_down(HostId(0), t, t);
    }
}
