//! The fact that sized `netsim`'s two-heap event queue, read from a
//! profile instead of a scratch probe: at the paper point nearly every
//! queued event is a timer that never fires (a +500 ms `ReassemblyExpire`
//! per multi-fragment datagram per host, plus superseded `TimerFire`
//! re-arms), and what the frame and CPU events churn through is a heap of
//! a few hundred entries at most.
//!
//! One test in its own binary: the `rmprof` registry is process-global.

use rmcast::{ProtocolConfig, ProtocolKind};
use simrun::scenario::{Protocol, Scenario};

#[test]
fn timers_stay_off_the_frame_heap_at_the_paper_point() {
    let cfg = ProtocolConfig::new(ProtocolKind::nak_polling(16), 8_000, 20);
    let sc = Scenario::new(Protocol::Rm(cfg), 30, 500_000);

    // Unprofiled runs publish nothing.
    let plain = sc.run(1);
    let snap = rmprof::snapshot();
    assert_eq!(snap.gauge("netsim.queue_peak"), None);
    assert_eq!(snap.gauge("netsim.timer_queue_peak"), None);

    let (profiled, snap) = sc.run_profiled(1);
    assert_eq!(profiled.comm_time, plain.comm_time);
    let near = snap.gauge("netsim.queue_peak").expect("published");
    let timers = snap.gauge("netsim.timer_queue_peak").expect("published");
    assert!(
        (1..300).contains(&near),
        "frame/CPU heap peaked at {near} entries"
    );
    // 63 datagrams of several fragments reach 30 hosts each; every one
    // leaves an expiry queued for 500 ms in a run of 46.
    assert!(timers >= 1_890, "timer heap peaked at {timers} entries");

    // A folded fan-out is still one dispatch per host it reaches.
    let dispatches = snap
        .stage(rmprof::Stage::NetsimDispatch.name())
        .map_or(0, |h| h.count());
    assert_eq!(dispatches, 16_463);
}
