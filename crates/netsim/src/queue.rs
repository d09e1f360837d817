//! The event queue: two binary heaps on one `(time, sequence)` order.
//!
//! Every scheduled event draws the next value of one sequence counter and
//! events leave in `(at, seq)` order, so simultaneous events run in the
//! order they were scheduled — the determinism contract. Three things
//! keep that order cheap to maintain:
//!
//! * **Timers live apart.** `TimerFire` and `ReassemblyExpire` are armed
//!   far ahead and usually die unfired (a re-armed timer supersedes its
//!   predecessor; a datagram that reassembles leaves its +500 ms expiry
//!   behind). They sit in their own heap, so the heap the frame and CPU
//!   events churn through holds only what is about to happen. A pop takes
//!   whichever head is smaller.
//! * **A same-instant fan-out is one entry.** Consecutive
//!   [`EventQueue::schedule_arrival`] calls that place the same frame at
//!   the same instant (a switch walking a multicast frame over equally
//!   loaded downlinks, a bus broadcast) extend one `FrameAtHost` entry's
//!   pooled host list ([`HostRun`]) instead of pushing an entry each. The
//!   single arrival is the run of length one. Each arrival still draws
//!   its own `seq`.
//! * **Records are 40 bytes**: ids are `u32` inside events and the rare
//!   forged datagram is boxed.
//!
//! Why folding is exact. Members of a run share `at` and hold consecutive
//! `seq`s `s..s+k`, so (1) no other entry can sort between two of them: at
//! the same `at` its `seq` is below `s` or above `s+k-1`; (2) whatever is
//! scheduled while the run is dispatched has a larger `seq` and
//! `at >= now`, so it sorts after the members still to come, exactly
//! where a heap of single entries would have put it; (3) a frame arrival
//! never calls a `Process`, so the stop flag cannot flip inside a run;
//! (4) one deadline test covers all members because they share `at`.

use crate::config::ForgeFrame;
use crate::frame::{Datagram, Frame};
use rmwire::Time;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::rc::Rc;

/// Simulator events. Arrival events carry the instant the *last bit* of a
/// frame reaches the device (store-and-forward semantics). Hosts and
/// switches are named by `u32` index here (`Sim` bounds both when they are
/// added) and a frame is spelled out as its two fields; both keep an
/// entry at 40 bytes.
pub(crate) enum Event {
    /// Frame fully received on a switch input port.
    FrameAtSwitch {
        dg: Rc<Datagram>,
        index: u32,
        sw: u32,
        in_port: u32,
    },
    /// Frame fully received at the NIC of every host of pooled run `run`
    /// (see [`EventQueue::take_run`]), in list order.
    FrameAtHost {
        dg: Rc<Datagram>,
        index: u32,
        run: u32,
    },
    /// The host CPU finished its current work item (or should dispatch).
    CpuDone { host: u32 },
    /// The process timer fired (ignored when `gen` is stale).
    TimerFire { host: u32, gen: u64 },
    /// The IP reassembly context `(src, ip_id)` at `host` timed out.
    ReassemblyExpire { host: u32, src: u32, ip_id: u64 },
    /// A crash-restarted host reboots: state is wiped and the process's
    /// `on_restart` runs.
    HostRestart { host: u32 },
    /// A host wants the shared bus (CSMA/CD fabric only).
    BusAttempt { host: u32 },
    /// End of the bus contention window: transmit or collide.
    BusResolve,
    /// A forged datagram from the fault plan arrives at a host socket.
    ForgeDeliver(Box<ForgeFrame>),
}

struct HeapEntry {
    at: Time,
    seq: u64,
    ev: Event,
}

impl HeapEntry {
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// The hosts one `FrameAtHost` entry reaches, in arrival order. A cache
/// line, fixed: a fan-out wider than [`HostRun::CAP`] is simply several
/// entries (splitting a run is always exact), and in exchange the pool is
/// one vector of these that doubles a few times per `Sim`, not a heap
/// allocation per list.
#[derive(Clone, Copy)]
pub(crate) struct HostRun {
    len: u32,
    hosts: [u32; HostRun::CAP],
}

impl HostRun {
    /// The paper's switches carry 15 receivers each.
    const CAP: usize = 15;

    pub(crate) fn hosts(&self) -> &[u32] {
        &self.hosts[..self.len as usize]
    }
}

/// The arrival entry pushed most recently, while it can still grow.
struct OpenRun {
    at: Time,
    /// The `seq` the next member must draw.
    next_seq: u64,
    /// Identity of the frame; never dereferenced. The entry holds an `Rc`
    /// to the datagram and is still queued whenever this is compared (a
    /// pop closes the run), so the address cannot have been reused.
    dg: *const Datagram,
    index: u32,
    run: u32,
}

/// See the module documentation.
#[derive(Default)]
pub(crate) struct EventQueue {
    /// Frame, CPU, bus and fault events.
    near: BinaryHeap<Reverse<HeapEntry>>,
    /// `TimerFire` and `ReassemblyExpire`.
    timers: BinaryHeap<Reverse<HeapEntry>>,
    next_seq: u64,
    /// Host lists of queued `FrameAtHost` entries, by slot. Once the pool
    /// has grown to the most such entries ever queued at once, scheduling
    /// an arrival allocates nothing.
    runs: Vec<HostRun>,
    free_runs: Vec<u32>,
    open: Option<OpenRun>,
    near_peak: usize,
    timer_peak: usize,
}

impl EventQueue {
    fn draw_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Queue any event but a host arrival.
    pub(crate) fn schedule(&mut self, at: Time, ev: Event) {
        debug_assert!(
            !matches!(ev, Event::FrameAtHost { .. }),
            "host arrivals go through schedule_arrival"
        );
        let is_timer = matches!(ev, Event::TimerFire { .. } | Event::ReassemblyExpire { .. });
        let seq = self.draw_seq();
        let entry = Reverse(HeapEntry { at, seq, ev });
        if is_timer {
            self.timers.push(entry);
            self.timer_peak = self.timer_peak.max(self.timers.len());
        } else {
            self.push_near(entry);
        }
    }

    fn push_near(&mut self, entry: Reverse<HeapEntry>) {
        self.near.push(entry);
        self.near_peak = self.near_peak.max(self.near.len());
    }

    /// Queue the arrival of `frame` at `host`: one more member of the open
    /// run if it is the same frame at the same instant, nothing has been
    /// scheduled since and the run has room; a new entry (the run of
    /// length one) otherwise.
    pub(crate) fn schedule_arrival(&mut self, at: Time, host: u32, frame: Frame) {
        let seq = self.draw_seq();
        if let Some(open) = &mut self.open {
            let run = &mut self.runs[open.run as usize];
            if open.at == at
                && open.next_seq == seq
                && open.dg == Rc::as_ptr(&frame.dg)
                && open.index == frame.index
                && (run.len as usize) < HostRun::CAP
            {
                open.next_seq += 1;
                run.hosts[run.len as usize] = host;
                run.len += 1;
                return;
            }
        }
        let mut single = HostRun {
            len: 1,
            hosts: [0; HostRun::CAP],
        };
        single.hosts[0] = host;
        let run = match self.free_runs.pop() {
            Some(slot) => {
                self.runs[slot as usize] = single;
                slot
            }
            None => {
                self.runs.push(single);
                u32::try_from(self.runs.len() - 1).expect("under 2^32 queued arrival entries")
            }
        };
        self.open = Some(OpenRun {
            at,
            next_seq: seq + 1,
            dg: Rc::as_ptr(&frame.dg),
            index: frame.index,
            run,
        });
        let Frame { dg, index } = frame;
        self.push_near(Reverse(HeapEntry {
            at,
            seq,
            ev: Event::FrameAtHost { dg, index, run },
        }));
    }

    /// Remove and return the earliest event if it is due by `deadline`.
    pub(crate) fn pop_due(&mut self, deadline: Time) -> Option<(Time, Event)> {
        // The entry about to leave may be the open run's own, whose slot
        // is then reused and whose datagram may be freed. A fan-out is
        // scheduled within one dispatch, so closing the run on every pop
        // loses nothing and needs no look at what is popped.
        self.open = None;
        let heap = match (self.near.peek(), self.timers.peek()) {
            (Some(Reverse(n)), Some(Reverse(t))) if t < n => &mut self.timers,
            (None, Some(_)) => &mut self.timers,
            _ => &mut self.near,
        };
        if heap.peek()?.0.at > deadline {
            return None;
        }
        let Reverse(entry) = heap.pop()?;
        Some((entry.at, entry.ev))
    }

    /// The host list of a popped `FrameAtHost` event; its slot returns to
    /// the pool.
    pub(crate) fn take_run(&mut self, slot: u32) -> HostRun {
        self.free_runs.push(slot);
        self.runs[slot as usize]
    }

    /// Most entries the frame/CPU heap and the timer heap have each held.
    pub(crate) fn peaks(&self) -> (usize, usize) {
        (self.near_peak, self.timer_peak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::UdpDest;
    use crate::ids::HostId;
    use bytes::Bytes;
    use proptest::prelude::*;

    #[test]
    fn an_entry_is_forty_bytes() {
        assert!(
            std::mem::size_of::<HeapEntry>() <= 40,
            "HeapEntry grew to {} bytes",
            std::mem::size_of::<HeapEntry>()
        );
    }

    fn datagram() -> Rc<Datagram> {
        Rc::new(Datagram {
            src_host: HostId(0),
            src_port: 0,
            dest: UdpDest::host(HostId(1), 9),
            payload: Bytes::from_static(b"x"),
            ip_id: 0,
            frag_data: crate::frame::FRAG_DATA,
        })
    }

    /// What a test schedules; each carries the `seq` it expects to draw in
    /// the field the queue hands back.
    #[derive(Debug, Clone, Copy)]
    enum Kind {
        Timer,
        Expire,
        Cpu,
        /// Arrival of fragment `index` of datagram `dg` (both 0 or 1).
        Arrival {
            dg: usize,
            index: u32,
        },
    }

    fn push(q: &mut EventQueue, dgs: &[Rc<Datagram>], at: Time, kind: Kind) {
        let id = u32::try_from(q.next_seq).unwrap();
        match kind {
            Kind::Timer => q.schedule(
                at,
                Event::TimerFire {
                    host: id,
                    gen: u64::from(id),
                },
            ),
            Kind::Expire => q.schedule(
                at,
                Event::ReassemblyExpire {
                    host: id,
                    src: 0,
                    ip_id: 0,
                },
            ),
            Kind::Cpu => q.schedule(at, Event::CpuDone { host: id }),
            Kind::Arrival { dg, index } => q.schedule_arrival(
                at,
                id,
                Frame {
                    dg: Rc::clone(&dgs[dg]),
                    index,
                },
            ),
        }
    }

    /// Pop everything due by `deadline`, one `(at, seq)` per arrival.
    fn drain(q: &mut EventQueue, deadline: Time, out: &mut Vec<(Time, u32)>) -> usize {
        let mut pops = 0;
        while let Some((at, ev)) = q.pop_due(deadline) {
            pops += 1;
            match ev {
                Event::TimerFire { host, .. }
                | Event::ReassemblyExpire { host, .. }
                | Event::CpuDone { host } => out.push((at, host)),
                Event::FrameAtHost { run, .. } => {
                    out.extend(q.take_run(run).hosts().iter().map(|&h| (at, h)));
                }
                _ => unreachable!("not scheduled by these tests"),
            }
        }
        pops
    }

    /// Three draws in ten are a timer, an expiry or a CPU event; the rest
    /// are arrivals of four frames, so runs of one frame are common and
    /// are interrupted by other frames and by other kinds.
    fn kind(draw: u8) -> Kind {
        match draw {
            0 => Kind::Timer,
            1 => Kind::Expire,
            2 => Kind::Cpu,
            n => Kind::Arrival {
                dg: usize::from(n % 2),
                index: u32::from(n / 2 % 2),
            },
        }
    }

    proptest! {
        /// Whatever is scheduled — timers and frame events sharing
        /// instants, runs of one frame at one instant interrupted by
        /// other kinds, pops between pushes — leaves in exactly the
        /// order a sort on `(at, seq)` gives, and a deadline stops the
        /// queue at the same event whichever heap holds it.
        #[test]
        fn pops_in_time_then_sequence_order(
            // Few distinct instants, so ties are the common case. A zero
            // in the third field drains up to the instant before pushing.
            ops in proptest::collection::vec((0u64..6, 0u8..10, 0u8..10), 1..200),
            deadline in 0u64..6,
        ) {
            let dgs = [datagram(), datagram()];
            let mut q = EventQueue::default();
            let mut reference: Vec<(Time, u32)> = Vec::new();
            let mut got = Vec::new();
            let mut expect = Vec::new();
            for (seq, &(at, draw, drain_first)) in ops.iter().enumerate() {
                let at = Time::from_nanos(at);
                if drain_first == 0 {
                    drain(&mut q, at, &mut got);
                    reference.sort_unstable();
                    let due = reference.partition_point(|&(t, _)| t <= at);
                    expect.extend(reference.drain(..due));
                    prop_assert_eq!(&got, &expect);
                }
                push(&mut q, &dgs, at, kind(draw));
                reference.push((at, seq as u32));
            }
            reference.sort_unstable();
            let deadline = Time::from_nanos(deadline);
            let due = reference.partition_point(|&(t, _)| t <= deadline);
            drain(&mut q, deadline, &mut got);
            expect.extend(reference.drain(..due));
            prop_assert_eq!(&got, &expect, "stopped at the wrong event");
            drain(&mut q, Time::MAX, &mut got);
            expect.append(&mut reference);
            prop_assert_eq!(&got, &expect);
            prop_assert_eq!(q.free_runs.len(), q.runs.len(), "a host list leaked");
        }
    }

    #[test]
    fn the_deadline_holds_whichever_heap_is_next() {
        let dgs = [datagram()];
        let t = Time::from_nanos;
        for past_is_timer in [true, false] {
            let mut q = EventQueue::default();
            push(&mut q, &dgs, t(1), Kind::Cpu);
            push(&mut q, &dgs, t(1), Kind::Timer);
            let (timer_at, frame_at) = if past_is_timer { (3, 4) } else { (4, 3) };
            push(&mut q, &dgs, t(timer_at), Kind::Timer);
            push(&mut q, &dgs, t(frame_at), Kind::Arrival { dg: 0, index: 0 });
            let mut got = Vec::new();
            drain(&mut q, t(2), &mut got);
            assert_eq!(got, [(t(1), 0), (t(1), 1)]);
            let first_past = if past_is_timer { 2 } else { 3 };
            drain(&mut q, t(3), &mut got);
            assert_eq!(got[2..], [(t(3), first_past)]);
            drain(&mut q, Time::MAX, &mut got);
            assert_eq!(got.len(), 4);
        }
    }

    #[test]
    fn a_run_folds_only_while_nothing_differs() {
        let dgs = [datagram(), datagram()];
        let t = Time::from_nanos;
        let a = |index| Kind::Arrival { dg: 0, index };
        let mut q = EventQueue::default();
        // seq 0-2: one run. seq 3: a timer breaks it. seq 4: same frame
        // again, a new run. seq 5: another instant. seq 6: another
        // fragment. seq 7: another datagram.
        for (at, kind) in [
            (5, a(0)),
            (5, a(0)),
            (5, a(0)),
            (9, Kind::Timer),
            (5, a(0)),
            (6, a(0)),
            (6, a(1)),
            (6, Kind::Arrival { dg: 1, index: 1 }),
        ] {
            push(&mut q, &dgs, t(at), kind);
        }
        assert_eq!(q.near.len(), 5, "8 arrivals and a timer, 5 + 1 entries");
        assert_eq!(q.timers.len(), 1);
        let mut got = Vec::new();
        let pops = drain(&mut q, Time::MAX, &mut got);
        assert_eq!(pops, 6);
        assert_eq!(
            got,
            [
                (t(5), 0),
                (t(5), 1),
                (t(5), 2),
                (t(5), 4),
                (t(6), 5),
                (t(6), 6),
                (t(6), 7),
                (t(9), 3)
            ]
        );
        assert_eq!(q.peaks(), (5, 1));
    }

    #[test]
    fn a_run_longer_than_a_list_is_several_entries() {
        let dgs = [datagram()];
        let at = Time::from_nanos(7);
        let mut q = EventQueue::default();
        let n = 2 * HostRun::CAP + 3;
        for _ in 0..n {
            push(&mut q, &dgs, at, Kind::Arrival { dg: 0, index: 0 });
        }
        assert_eq!(q.near.len(), 3);
        let mut got = Vec::new();
        drain(&mut q, Time::MAX, &mut got);
        let expect: Vec<_> = (0..n as u32).map(|seq| (at, seq)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn a_pop_closes_the_open_run() {
        let dgs = [datagram()];
        let t = Time::from_nanos;
        let a = Kind::Arrival { dg: 0, index: 0 };
        let mut q = EventQueue::default();
        push(&mut q, &dgs, t(1), Kind::Cpu);
        push(&mut q, &dgs, t(5), a);
        let mut got = Vec::new();
        assert!(q.pop_due(t(1)).is_some());
        // Same frame, same instant, consecutive seq, but not the same
        // dispatch: runs do not reach across a pop.
        push(&mut q, &dgs, t(5), a);
        assert_eq!(q.near.len(), 2);
        drain(&mut q, Time::MAX, &mut got);
        assert_eq!(got, [(t(5), 1), (t(5), 2)]);
    }
}
