//! Property-based tests: reliability and wire-format invariants must hold
//! for *arbitrary* message sizes, protocol parameters and loss patterns.

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;
use rmcast::loopback::Loopback;
use rmcast::{Faults, ProtocolConfig, ProtocolKind, TreeShape, WindowDiscipline};
use rmwire::{Header, PacketFlags, PacketType, Rank, SeqNo};

fn arb_kind() -> impl Strategy<Value = ProtocolKind> {
    prop_oneof![
        Just(ProtocolKind::Ack),
        (1usize..=8).prop_map(ProtocolKind::nak_polling),
        (1usize..=8).prop_map(|i| ProtocolKind::NakPolling {
            poll_interval: i,
            receiver_multicast_nak: true
        }),
        Just(ProtocolKind::Ring),
        (1usize..=6).prop_map(ProtocolKind::flat_tree),
        Just(ProtocolKind::Tree {
            shape: TreeShape::Binary
        }),
        (
            1usize..=8,
            prop_oneof![Just(0usize), 2usize..=16],
            1usize..=64,
        )
            .prop_map(|(poll_interval, parity_every, max_coded)| {
                ProtocolKind::Fec {
                    poll_interval,
                    parity_every,
                    max_coded,
                }
            }),
    ]
}

fn build_config(
    kind: ProtocolKind,
    n: u16,
    packet_size: usize,
    window: usize,
    sr: bool,
) -> ProtocolConfig {
    let mut kind = kind;
    // Clamp the tree height into the group.
    if let ProtocolKind::Tree {
        shape: TreeShape::Flat { height },
    } = kind
    {
        kind = ProtocolKind::flat_tree(height.min(n as usize));
    }
    let mut cfg = ProtocolConfig::new(kind, packet_size, window);
    if matches!(kind, ProtocolKind::Ring) {
        cfg.window = cfg.window.max(n as usize + 1 + 1);
    }
    if let ProtocolKind::NakPolling { poll_interval, .. }
    | ProtocolKind::Fec { poll_interval, .. } = kind
    {
        cfg.window = cfg.window.max(poll_interval);
    }
    if sr {
        cfg.discipline = WindowDiscipline::SelectiveRepeat;
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every protocol delivers every byte to every receiver, clean network.
    #[test]
    fn reliable_delivery_clean(
        kind in arb_kind(),
        n in 1u16..8,
        packet_size in 1usize..2000,
        window in 1usize..12,
        msg_len in 0usize..6000,
        seed in 0u64..u64::MAX,
    ) {
        let cfg = build_config(kind, n, packet_size, window, false);
        let mut net = Loopback::new(cfg, n, seed);
        let msg = Bytes::from((0..msg_len).map(|i| i as u8).collect::<Vec<_>>());
        net.send_message(msg.clone());
        let out = net.run();
        prop_assert_eq!(out.len(), n as usize);
        for d in out {
            prop_assert_eq!(&d, &msg);
        }
    }

    /// ... and under random per-datagram loss.
    #[test]
    fn reliable_delivery_lossy(
        kind in arb_kind(),
        n in 1u16..5,
        loss in 0.01f64..0.35,
        msg_len in 1usize..4000,
        sr in any::<bool>(),
        seed in 0u64..u64::MAX,
    ) {
        let cfg = build_config(kind, n, 512, 8, sr);
        let mut net = Loopback::new(cfg, n, seed).with_loss(loss);
        let msg = Bytes::from((0..msg_len).map(|i| (i * 7) as u8).collect::<Vec<_>>());
        net.send_message(msg.clone());
        let out = net.run();
        prop_assert_eq!(out.len(), n as usize);
        for d in out {
            prop_assert_eq!(&d, &msg);
        }
    }

    /// Exactly-once delivery under datagram duplication: every protocol,
    /// arbitrary duplication rates, no receiver ever sees a message twice.
    #[test]
    fn exactly_once_under_duplication(
        kind in arb_kind(),
        n in 1u16..5,
        dup in 0.05f64..0.6,
        msg_len in 1usize..4000,
        seed in 0u64..u64::MAX,
    ) {
        let cfg = build_config(kind, n, 512, 8, false);
        let mut net = Loopback::new(cfg, n, seed).with_faults(Faults {
            dup,
            ..Faults::default()
        });
        let msg = Bytes::from((0..msg_len).map(|i| (i * 13) as u8).collect::<Vec<_>>());
        net.send_message(msg.clone());
        let out = net.run();
        // Exactly one delivery per receiver — duplicates must be absorbed.
        prop_assert_eq!(out.len(), n as usize);
        for d in out {
            prop_assert_eq!(&d, &msg);
        }
        for i in 0..n as usize {
            let delivered = net.deliveries.iter().filter(|(r, _, _)| *r == i).count();
            prop_assert_eq!(delivered, 1, "receiver {} saw {} deliveries", i, delivered);
        }
    }

    /// ... and under duplication combined with loss (retransmissions then
    /// also arrive twice).
    #[test]
    fn exactly_once_under_duplication_and_loss(
        kind in arb_kind(),
        n in 1u16..4,
        dup in 0.05f64..0.4,
        loss in 0.01f64..0.2,
        msg_len in 1usize..3000,
        seed in 0u64..u64::MAX,
    ) {
        let cfg = build_config(kind, n, 512, 8, false);
        let mut net = Loopback::new(cfg, n, seed).with_faults(Faults {
            loss,
            dup,
            ..Faults::default()
        });
        let msg = Bytes::from((0..msg_len).map(|i| (i * 31) as u8).collect::<Vec<_>>());
        net.send_message(msg.clone());
        let out = net.run();
        prop_assert_eq!(out.len(), n as usize);
        for d in out {
            prop_assert_eq!(&d, &msg);
        }
    }

    /// Clean runs never retransmit, for any parameters.
    #[test]
    fn clean_runs_never_retransmit(
        kind in arb_kind(),
        n in 1u16..8,
        msg_len in 0usize..5000,
        seed in 0u64..u64::MAX,
    ) {
        let cfg = build_config(kind, n, 700, 9, false);
        let mut net = Loopback::new(cfg, n, seed);
        net.send_message(Bytes::from(vec![1u8; msg_len]));
        net.run();
        prop_assert_eq!(net.sender_stats().retx_sent, 0);
        prop_assert_eq!(net.sender_stats().timeouts, 0);
    }

    /// Header encoding round-trips for arbitrary field values.
    #[test]
    fn header_round_trip(
        ptype in 1u8..=3,
        flags in 0u8..16,
        rank in any::<u16>(),
        transfer in any::<u32>(),
        seq in any::<u32>(),
    ) {
        let h = Header {
            ptype: match ptype {
                1 => PacketType::Data,
                2 => PacketType::Ack,
                _ => PacketType::Nak,
            },
            flags: PacketFlags::from_bits(flags).unwrap(),
            src_rank: Rank(rank),
            transfer,
            seq: SeqNo(seq),
        };
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        let mut b = buf.freeze();
        prop_assert_eq!(Header::decode(&mut b).unwrap(), h);
    }

    /// Arbitrary bytes never panic the packet parser.
    #[test]
    fn parser_never_panics(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = rmcast::packet::Packet::parse(&data);
    }

    /// Sequence-number window arithmetic: `in_window` agrees with the
    /// offset definition for arbitrary bases.
    #[test]
    fn seq_window_membership(lo in any::<u32>(), off in any::<u32>(), len in 0u32..1_000_000) {
        let s = SeqNo(lo).add(off);
        let member = s.in_window(SeqNo(lo), len);
        prop_assert_eq!(member, off < len);
    }

    /// `precedes` is asymmetric for distinct values within half the space.
    #[test]
    fn seq_precedes_asymmetric(a in any::<u32>(), d in 1u32..(1 << 31)) {
        let x = SeqNo(a);
        let y = x.add(d);
        prop_assert!(x.precedes(y));
        prop_assert!(!y.precedes(x));
        prop_assert_eq!(x.distance_to(y), d as i32);
    }
}

mod membership_churn {
    use super::*;

    /// All four families (plus the multicast-NAK ablation), membership on.
    fn arb_family() -> impl Strategy<Value = ProtocolKind> {
        prop_oneof![
            Just(ProtocolKind::Ack),
            (2usize..=6).prop_map(ProtocolKind::nak_polling),
            (2usize..=6).prop_map(|i| ProtocolKind::NakPolling {
                poll_interval: i,
                receiver_multicast_nak: true
            }),
            Just(ProtocolKind::Ring),
            (2usize..=4).prop_map(ProtocolKind::flat_tree),
            Just(ProtocolKind::Tree {
                shape: TreeShape::Binary
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Crash, eviction and rejoin under loss: the sender completes
        /// every message, and every member alive at the end observed
        /// exactly-once, in-order delivery of the messages sent while it
        /// was a member.
        #[test]
        fn exactly_once_under_churn(
            kind in arb_family(),
            n in 2u16..6,
            loss in 0.0f64..0.08,
            msg_len in 1usize..3000,
            seed in 0u64..u64::MAX,
        ) {
            let mut cfg = build_config(kind, n, 512, 8, false);
            cfg.membership = true;
            if matches!(kind, ProtocolKind::Tree { .. }) {
                // Far above the RTO so lossy-but-alive children are never
                // spuriously evicted by their chain parent.
                cfg.liveness.child_evict_timeout =
                    Some(rmwire::Duration::from_millis(2_000));
            }
            // Rank n has no tree children in either shape, so its death
            // never strands a subtree's ack path.
            let victim = n as usize - 1;
            let mut net = Loopback::new(cfg, n, seed).with_loss(loss);

            net.send_message(Bytes::from(vec![1u8; msg_len]));
            net.run();
            net.kill_receiver(victim);
            net.send_message(Bytes::from(vec![2u8; msg_len]));
            net.run();
            net.rejoin_receiver(victim);
            net.run(); // completes the JOIN -> WELCOME -> SYNC handshake
            net.send_message(Bytes::from(vec![3u8; msg_len]));
            net.run();

            prop_assert_eq!(&net.sent, &vec![0u64, 1, 2]);
            // Somebody evicted the crashed receiver: the sender's failure
            // detector / straggler eviction, or (tree) its parent node.
            let evictions = net.sender_stats().evictions
                + (0..n as usize)
                    .map(|i| net.receiver_stats(i).evictions)
                    .sum::<u64>();
            prop_assert!(evictions >= 1, "nobody evicted the crashed receiver");
            // A lost SYNC re-runs admission, so joins can exceed one.
            prop_assert!(net.sender_stats().joins >= 1, "rejoin never admitted");
            for i in 0..n as usize {
                let ids: Vec<u64> = net
                    .deliveries
                    .iter()
                    .filter(|(r, _, _)| *r == i)
                    .map(|&(_, id, _)| id)
                    .collect();
                let expect: Vec<u64> =
                    if i == victim { vec![0, 2] } else { vec![0, 1, 2] };
                prop_assert_eq!(
                    ids,
                    expect,
                    "receiver {} ledger (kind {:?} n {} loss {} len {} seed {})",
                    i, kind, n, loss, msg_len, seed
                );
            }
        }
    }
}

mod overload_invariants {
    use proptest::prelude::*;
    use rmcast::overload::MAX_LOAD_LEVEL;
    use rmcast::{AimdWindow, DupNakFilter, LoadScaler, TokenBucket};
    use rmwire::{Duration, Time};
    use std::collections::HashSet;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The AIMD cap never leaves `[floor, ceiling]` under arbitrary
        /// interleavings of congestion and progress; congestion never grows
        /// it, progress never shrinks it, growth is at most one packet per
        /// acked packet, and the returned `changed` flag is truthful.
        #[test]
        fn aimd_cap_always_bracketed(
            floor in 1usize..64,
            spread_init in 0usize..64,
            spread_ceil in 0usize..64,
            ops in proptest::collection::vec((any::<bool>(), 0usize..512), 0..256),
        ) {
            let initial = floor + spread_init;
            let ceiling = initial + spread_ceil;
            let mut w = AimdWindow::new(initial, floor, ceiling);
            for (congest, acked) in ops {
                let before = w.cap();
                let changed = if congest {
                    w.on_congestion()
                } else {
                    w.on_progress(acked)
                };
                prop_assert!(
                    (floor..=ceiling).contains(&w.cap()),
                    "cap {} left [{floor}, {ceiling}]", w.cap()
                );
                if congest {
                    prop_assert!(w.cap() <= before, "congestion grew the cap");
                    prop_assert!(
                        w.cap() >= before / 2,
                        "decrease steeper than multiplicative halving"
                    );
                } else {
                    prop_assert!(w.cap() >= before, "progress shrank the cap");
                    prop_assert!(
                        w.cap() - before <= acked,
                        "additive increase outpaced acked packets"
                    );
                }
                prop_assert_eq!(changed, w.cap() != before);
            }
        }

        /// Recovering from the floor to any target cap costs at least one
        /// full window of acknowledged packets per step: additive increase
        /// is genuinely gradual, never a jump.
        #[test]
        fn aimd_recovery_is_gradual(
            floor in 1usize..32,
            spread in 1usize..64,
            acked in 1usize..10_000,
        ) {
            let ceiling = floor + spread;
            let mut w = AimdWindow::new(floor, floor, ceiling);
            w.on_progress(acked);
            // Growing from `floor` to `cap` consumes at least
            // floor + (floor+1) + ... + (cap-1) credits.
            let mut cost = 0usize;
            for step in floor..w.cap() {
                cost += step;
            }
            prop_assert!(cost <= acked, "cap {} reached too cheaply", w.cap());
        }

        /// Over any span the bucket never grants more than its burst plus
        /// the refill the elapsed time paid for: a feedback storm costs
        /// bounded processing regardless of its arrival pattern.
        #[test]
        fn token_bucket_grants_at_most_burst_plus_rate(
            rate in 1u64..100_000,
            burst in 0u32..256,
            deltas in proptest::collection::vec(0u64..10_000_000u64, 1..128),
        ) {
            let mut b = TokenBucket::new(rate, burst);
            let mut now = Time::ZERO;
            let mut granted: u128 = 0;
            for d in deltas {
                now += Duration::from_nanos(d);
                while b.take(now) {
                    granted += 1;
                }
            }
            let budget =
                burst as u128 + (now.as_nanos() as u128 * rate as u128) / 1_000_000_000 + 1;
            prop_assert!(granted <= budget, "granted {granted} > budget {budget}");
        }

        /// A NAK for a never-before-seen `(transfer, seq)` is never
        /// collapsed: the filter sheds only genuine duplicates.
        #[test]
        fn dup_nak_filter_never_collapses_fresh_naks(
            window_ms in 1u64..50,
            naks in proptest::collection::vec((0u64..4, 0u64..32, 0u64..100), 1..200),
        ) {
            let mut f = DupNakFilter::new(Duration::from_millis(window_ms));
            let mut seen = HashSet::new();
            let mut now = Time::ZERO;
            for (transfer, seq, advance_us) in naks {
                now += Duration::from_micros(advance_us);
                let dup = f.is_dup(transfer, seq, now);
                if seen.insert((transfer, seq)) {
                    prop_assert!(!dup, "fresh NAK ({transfer}, {seq}) collapsed");
                }
                if !dup {
                    // A passed NAK re-asked at the same instant is a dup.
                    prop_assert!(f.is_dup(transfer, seq, now));
                }
            }
        }

        /// The load level stays in `[1, MAX_LOAD_LEVEL]` and the scaled
        /// suppression interval is exactly the base times the level, for
        /// any feedback arrival pattern.
        #[test]
        fn load_scaler_level_is_clamped(
            threshold in 1u32..64,
            events in proptest::collection::vec(0u64..30_000u64, 0..300),
            base_us in 1u64..10_000,
        ) {
            let mut s = LoadScaler::new(threshold);
            let mut now = Time::ZERO;
            for advance_us in events {
                now += Duration::from_micros(advance_us);
                s.note(now);
                let level = s.level(now);
                prop_assert!((1..=MAX_LOAD_LEVEL).contains(&level));
                let base = Duration::from_micros(base_us);
                prop_assert_eq!(
                    s.scale(base, now).as_nanos(),
                    base.as_nanos() * level as u64
                );
            }
        }
    }
}

mod tree_invariants {
    use proptest::prelude::*;
    use rmcast::tree::TreeTopology;
    use rmcast::TreeShape;
    use rmwire::{GroupSpec, Rank};

    proptest! {
        /// Every receiver appears in exactly one subtree; parent/child
        /// links agree; depth is bounded by the configured height.
        #[test]
        fn flat_tree_structure(n in 1u16..64, h in 1usize..64) {
            let h = h.min(n as usize);
            let g = GroupSpec::new(n);
            let t = TreeTopology::new(g, TreeShape::Flat { height: h });

            // Roots' subtrees partition the group.
            let covered: usize = t.roots().iter().map(|&r| t.subtree_size(r)).sum();
            prop_assert_eq!(covered, n as usize);
            prop_assert_eq!(t.roots().len(), (n as usize).div_ceil(h));
            prop_assert!(t.max_depth() <= h);

            for r in g.receivers() {
                let links = t.links(r);
                // Parent lists r among its children, and vice versa.
                if let Some(p) = links.parent {
                    prop_assert!(t.links(p).children.contains(&r));
                } else {
                    prop_assert!(t.roots().contains(&r));
                }
                for &c in &links.children {
                    prop_assert_eq!(t.links(c).parent, Some(r));
                }
                // Flat chains: at most one child.
                prop_assert!(links.children.len() <= 1);
            }
        }

        /// Binary tree: heap-shaped, single root, every node linked
        /// consistently.
        #[test]
        fn binary_tree_structure(n in 1u16..64) {
            let g = GroupSpec::new(n);
            let t = TreeTopology::new(g, TreeShape::Binary);
            prop_assert_eq!(t.roots(), &[Rank(1)]);
            prop_assert_eq!(t.subtree_size(Rank(1)), n as usize);
            for r in g.receivers() {
                let links = t.links(r);
                if r.0 >= 2 {
                    prop_assert_eq!(links.parent, Some(Rank(r.0 / 2)));
                }
                prop_assert!(links.children.len() <= 2);
                for &c in &links.children {
                    prop_assert!(c.0 == r.0 * 2 || c.0 == r.0 * 2 + 1);
                }
            }
            // Depth is logarithmic.
            let depth = t.max_depth();
            prop_assert!(1usize << (depth - 1) <= n as usize);
        }
    }
}

mod fec_coding {
    use super::*;
    use rmcast::fec::{greedy_blocks, xor_chunks};
    use std::collections::BTreeMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The greedy batcher never codes two packets lost by the same
        /// receiver into one block (that receiver could decode neither),
        /// covers every pending sequence exactly once, and emits only
        /// canonical in-span bitmaps.
        #[test]
        fn greedy_blocks_keep_loss_sets_disjoint(
            pending in proptest::collection::vec((0u32..200, 1u64..(1 << 8)), 0..40)
                .prop_map(|v| v.into_iter().collect::<BTreeMap<u32, u64>>()),
            max_coded in 1usize..=64,
        ) {
            let blocks = greedy_blocks(&pending, max_coded);
            let mut covered: BTreeMap<u32, u32> = BTreeMap::new();
            for &(base, bitmap) in &blocks {
                prop_assert!(bitmap & 1 == 1, "bitmap must be canonical (bit 0 set)");
                let seqs: Vec<u32> = (0..64u32)
                    .filter(|i| bitmap & (1u64 << i) != 0)
                    .map(|i| base + i)
                    .collect();
                prop_assert!(seqs.len() <= max_coded, "block exceeds max_coded");
                // Loss sets pairwise disjoint: the union never overlaps the
                // next member's losers.
                let mut union = 0u64;
                for &s in &seqs {
                    let losers = pending[&s];
                    prop_assert_eq!(
                        losers & union, 0,
                        "sequence {} shares a loser with an earlier block member", s
                    );
                    union |= losers;
                    *covered.entry(s).or_insert(0) += 1;
                }
            }
            // Exactly-once cover of the pending set.
            prop_assert_eq!(covered.len(), pending.len());
            prop_assert!(covered.values().all(|&c| c == 1));
            prop_assert!(covered.keys().all(|s| pending.contains_key(s)));
        }

        /// XOR decode is bit-exact: for any message, packet size and coded
        /// set, the block XORed with all-but-one chunk reproduces the
        /// missing chunk byte-for-byte (zero-padded to the block length).
        #[test]
        fn xor_decode_is_bit_exact(
            msg in proptest::collection::vec(any::<u8>(), 0..5000),
            packet_size in 1usize..700,
            picks in proptest::collection::vec(0u32..64, 1..16)
                .prop_map(|v| v.into_iter().collect::<std::collections::BTreeSet<u32>>()),
            miss_pick in 0usize..16,
        ) {
            let seqs: Vec<u32> = picks.into_iter().collect();
            let missing = seqs[miss_pick % seqs.len()];
            let block = xor_chunks(&msg, packet_size, seqs.iter().copied());
            // Receiver side: XOR the block with every *held* chunk.
            let mut acc = block.clone();
            for &s in seqs.iter().filter(|&&s| s != missing) {
                let start = (s as usize).saturating_mul(packet_size);
                let chunk = if start < msg.len() {
                    &msg[start..(start + packet_size).min(msg.len())]
                } else {
                    &[][..]
                };
                for (a, b) in acc.iter_mut().zip(chunk) {
                    *a ^= b;
                }
            }
            // The decoded prefix is exactly the missing chunk...
            let start = (missing as usize).saturating_mul(packet_size);
            let want = if start < msg.len() {
                &msg[start..(start + packet_size).min(msg.len())]
            } else {
                &[][..]
            };
            prop_assert_eq!(&acc[..want.len()], want, "decoded bytes differ");
            // ...and everything past it is the XOR's zero padding.
            prop_assert!(acc[want.len()..].iter().all(|&b| b == 0));
        }
    }
}
