//! Probe loops: single-layer costs measured from outside, by timing calls
//! into each layer's public functions on fixed inputs.
//!
//! Every probe runs a fixed number of iterations per batch (so the work is
//! the same on every machine and run) and reports the median of
//! [`REPS`] batches. Batches are sized to 10–20 ms on the sizing machine:
//! long enough to swamp the clock reads, short enough that all probes fit
//! the traced run's share of the time cap.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use netsim::process::{Ctx, DatagramIn, Process};
use netsim::{topology, HostId, Sim, SimConfig, UdpDest};
use rmcast::assembler::Assembly;
use rmcast::fec::xor_chunks;
use rmcast::loopback::Loopback;
use rmcast::packet::{encode_ack, encode_data, seal, Packet};
use rmcast::window::SendWindow;
use rmcast::{Rank, SeqNo, Time, WindowDiscipline};
use rmwire::{crc32c, Header, PacketFlags, PacketType};

use crate::stats::median;
use crate::workload::{families, SplitMix, BULK, LOOP_N, PACKET};

/// Batches per probe; the median is reported.
const REPS: usize = 9;

/// Median over [`REPS`] batches of nanoseconds per iteration, where one
/// batch is `iters` calls of `body`.
fn ns_per_iter(iters: u64, mut body: impl FnMut(u64)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                body(i);
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / ns * 1e3
}

fn chunk(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix::new(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// The two-host ping-pong of `perf_record`: pure event-engine throughput,
/// no protocol on top.
struct Ping {
    left: u32,
    peer: HostId,
}

impl Process for Ping {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send(UdpDest::host(self.peer, 9), Bytes::from_static(b"x"));
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dg: DatagramIn) {
        if self.left == 0 {
            ctx.stop_sim();
            return;
        }
        self.left -= 1;
        ctx.send(UdpDest::host(dg.src_host, 9), Bytes::from_static(b"x"));
    }
}

fn pingpong_events_per_s() -> f64 {
    const EXCHANGES: u32 = 10_000;
    let ns = ns_per_iter(1, |_| {
        let mut sim = Sim::new(SimConfig::default(), 1);
        let hosts = topology::single_switch(&mut sim, 2);
        for (i, &h) in hosts.iter().enumerate() {
            sim.spawn(
                h,
                9,
                Box::new(Ping {
                    left: EXCHANGES,
                    peer: hosts[1 - i],
                }),
            );
        }
        sim.run();
    });
    // Each exchange is two datagram deliveries, one per direction.
    f64::from(2 * EXCHANGES) / ns * 1e9
}

/// Microseconds per 512-byte message on a clean `Loopback`, one family.
fn small_msg_us(cfg: rmcast::ProtocolConfig, payload: &Bytes) -> f64 {
    const MSGS: u64 = 400;
    // A fresh group per batch: `Loopback::run` bounds *absolute* virtual
    // time, so a harness must not reuse one group forever.
    let ns = ns_per_iter(1, |_| {
        let mut net = Loopback::new(cfg, LOOP_N, 1);
        for _ in 0..MSGS {
            net.send_message(payload.clone());
            black_box(net.run());
            net.deliveries.clear();
            net.sent.clear();
        }
    });
    ns / MSGS as f64 / 1e3
}

/// Run every probe; `(metric name, value)` in `BENCHMARK.json` order.
pub fn run_all(seed: u64) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let data = chunk(seed, PACKET);

    // rmwire
    let framed = chunk(seed ^ 1, PACKET + 4);
    let ns = ns_per_iter(500, |_| {
        black_box(crc32c(black_box(&framed)));
    });
    out.push(("rmwire.crc32c_mb_s".into(), mb_per_s(framed.len(), ns)));

    let mut buf: Vec<u8> = Vec::with_capacity(64);
    let ns = ns_per_iter(400_000, |i| {
        buf.clear();
        Header {
            ptype: PacketType::Data,
            flags: PacketFlags::EMPTY,
            src_rank: Rank::SENDER,
            transfer: 7,
            seq: SeqNo(i as u32),
        }
        .encode(&mut buf);
        black_box(Header::decode(&mut &buf[..]).is_ok());
    });
    out.push(("rmwire.header_roundtrip_ns".into(), ns));

    // core::packet
    let ns = ns_per_iter(20_000, |i| {
        black_box(encode_data(
            Rank::SENDER,
            7,
            SeqNo(i as u32),
            PacketFlags::EMPTY,
            black_box(&data),
        ));
    });
    out.push(("core.packet.encode_data_ns".into(), ns));

    let packet = encode_data(Rank::SENDER, 7, SeqNo(3), PacketFlags::EMPTY, &data);
    let ns = ns_per_iter(500, |_| {
        black_box(seal(black_box(&packet)));
    });
    out.push(("core.packet.seal_ns".into(), ns));

    let ns = ns_per_iter(20_000, |_| {
        black_box(Packet::parse(black_box(&packet)).is_ok());
    });
    out.push(("core.packet.parse_data_ns".into(), ns));

    let sealed = seal(&packet);
    let ns = ns_per_iter(500, |_| {
        black_box(Packet::parse_checked(black_box(&sealed), true).is_ok());
    });
    out.push(("core.packet.parse_checked_ns".into(), ns));

    let ns = ns_per_iter(100_000, |i| {
        let ack = encode_ack(Rank(3), 7, SeqNo(i as u32));
        black_box(Packet::parse(&ack).is_ok());
    });
    out.push(("core.packet.ack_roundtrip_ns".into(), ns));

    // core::assembler: one 500 000-byte message, 63 offers.
    let msg = chunk(seed ^ 2, BULK);
    let k = BULK.div_ceil(PACKET) as u32;
    let offer_all = |order: &[u32], discipline: WindowDiscipline| {
        let mut a = Assembly::preallocated(BULK, PACKET, discipline, k);
        for &seq in order {
            let start = seq as usize * PACKET;
            let end = (start + PACKET).min(BULK);
            black_box(a.offer(seq, &msg[start..end], seq + 1 == k));
        }
        black_box(a.into_bytes());
    };
    let in_order: Vec<u32> = (0..k).collect();
    let ns = ns_per_iter(100, |_| offer_all(&in_order, WindowDiscipline::GoBackN));
    out.push(("core.assembler.offer_ns".into(), ns / f64::from(k)));

    // Fisher–Yates with the seeded generator. The selective-repeat window
    // is the whole message, so every order is accepted.
    let mut shuffled = in_order.clone();
    let mut rng = SplitMix::new(seed ^ 3);
    for i in (1..shuffled.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        shuffled.swap(i, j);
    }
    let ns = ns_per_iter(100, |_| {
        offer_all(&shuffled, WindowDiscipline::SelectiveRepeat)
    });
    out.push(("core.assembler.offer_ooo_ns".into(), ns / f64::from(k)));

    // core::window
    let mut window = SendWindow::new(u32::MAX, 20);
    let ns = ns_per_iter(1_000_000, |_| {
        let seq = window.mark_sent(Time::ZERO);
        window.release(black_box(seq + 1));
    });
    out.push(("core.window.cycle_ns".into(), ns));

    // core::fec: XOR of 16 chunks of 8 000 bytes.
    let ns = ns_per_iter(500, |_| {
        black_box(xor_chunks(black_box(&msg), PACKET, 0..16));
    });
    out.push(("core.fec.xor_mb_s".into(), mb_per_s(16 * PACKET, ns)));

    // Per-message cost of each family on the engine-only backend.
    let small = Bytes::from(chunk(seed ^ 4, 512));
    for (name, cfg, _) in families() {
        out.push((
            format!("core.small_msg_us.{name}"),
            small_msg_us(cfg, &small),
        ));
    }

    out.push((
        "netsim.pingpong_events_per_s".into(),
        pingpong_events_per_s(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_grows_with_iteration_count() {
        // `black_box` is a hint; confirm the probed work is not deleted.
        let data = chunk(1, PACKET + 4);
        let timed = |iters: u64| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(crc32c(black_box(&data)));
            }
            t.elapsed()
        };
        timed(50);
        assert!(timed(2_000) > 4 * timed(100));
    }
}
