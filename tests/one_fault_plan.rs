//! One fault plan, three backends: the same run — protocol, group size,
//! messages, seed and `rmcast::Faults` — stated once and executed on the
//! in-process `Loopback`, on the simulator (`simrun::Scenario`) and over
//! kernel UDP sockets (`udprun::run_cluster`), compared by what each
//! receiver delivered.

use bytes::Bytes;
use rmcast::loopback::Loopback;
use rmcast::{Duration, Faults, LivenessConfig, ProtocolConfig, ProtocolKind};
use rmwire::crc32c;
use simrun::scenario::{Protocol, Scenario};
use std::collections::BTreeSet;
use std::io;
use std::sync::Mutex;
use udprun::cluster::{run_cluster, ClusterConfig};

/// `(receiver index, msg_id, crc32c of the delivered bytes)`.
type Delivery = (usize, u64, u32);

#[derive(Debug, Clone, Copy)]
enum Backend {
    Loopback,
    Sim,
    Udp,
}

const ALL: [Backend; 3] = [Backend::Loopback, Backend::Sim, Backend::Udp];

/// One run, stated once for every backend.
struct Run {
    cfg: ProtocolConfig,
    n: u16,
    msg_size: usize,
    n_messages: usize,
    seed: u64,
}

/// Real-socket runs take turns: they keep both CPUs busy on their own.
static SOCKETS: Mutex<()> = Mutex::new(());

impl Run {
    fn new(cfg: ProtocolConfig) -> Self {
        Run {
            cfg,
            n: 4,
            msg_size: 30_000,
            n_messages: 3,
            seed: 7,
        }
    }

    fn scenario(&self) -> Scenario {
        let mut sc = Scenario::new(Protocol::Rm(self.cfg), self.n, self.msg_size);
        sc.n_messages = self.n_messages;
        sc
    }

    fn messages(&self) -> Vec<Bytes> {
        vec![self.scenario().payload(); self.n_messages]
    }

    /// Every message delivered intact at each of `receivers`.
    fn everything_at(&self, receivers: &[usize]) -> BTreeSet<Delivery> {
        let crc = crc32c(&self.scenario().payload());
        let ids = 0..self.n_messages as u64;
        let all = receivers
            .iter()
            .flat_map(|&i| ids.clone().map(move |id| (i, id, crc)));
        all.collect()
    }

    /// What each receiver delivered under `faults` on `backend`; panics if
    /// any receiver delivers a message twice.
    fn execute(&self, backend: Backend, faults: &Faults) -> io::Result<BTreeSet<Delivery>> {
        let delivered: Vec<Delivery> = match backend {
            Backend::Loopback => {
                let mut net =
                    Loopback::new(self.cfg, self.n, self.seed).with_faults(faults.clone());
                for m in self.messages() {
                    net.send_message(m);
                }
                net.run();
                let got = net.deliveries.iter();
                got.map(|(i, id, data)| (*i, *id, crc32c(data))).collect()
            }
            Backend::Sim => {
                let out = self.scenario().with_faults(faults).run_chaos(self.seed);
                assert!(out.completed, "the simulated run hung: {faults:?}");
                let got = out.delivered_crcs.iter();
                got.map(|&(rank, id, crc)| (rank.receiver_index(), id, crc))
                    .collect()
            }
            Backend::Udp => {
                let mut cc = ClusterConfig::new(self.cfg, self.n);
                cc.seed = self.seed;
                cc.faults = faults.clone();
                let _turn = SOCKETS.lock().unwrap_or_else(|e| e.into_inner());
                let out = run_cluster(cc, self.messages())?;
                let got = out.deliveries.iter();
                got.map(|(rank, id, data)| (rank.receiver_index(), *id, crc32c(data)))
                    .collect()
            }
        };
        let set: BTreeSet<Delivery> = delivered.iter().copied().collect();
        let once: BTreeSet<(usize, u64)> = set.iter().map(|&(i, id, _)| (i, id)).collect();
        assert_eq!(once.len(), delivered.len(), "{backend:?} delivered twice");
        Ok(set)
    }
}

fn nak() -> ProtocolConfig {
    let mut cfg = ProtocolConfig::new(ProtocolKind::nak_polling(6), 4_000, 12);
    // Real wall-clock timers: a short RTO recovers a lost copy quickly.
    cfg.rto = Duration::from_millis(40);
    cfg
}

#[test]
fn five_percent_loss_delivers_everything_on_every_backend() {
    let run = Run::new(nak());
    let faults = Faults {
        loss: 0.05,
        ..Faults::default()
    };
    for backend in ALL {
        let got = run.execute(backend, &faults).expect("runs");
        assert_eq!(got, run.everything_at(&[0, 1, 2, 3]), "{backend:?}");
    }
}

#[test]
fn a_receiver_down_for_good_delivers_nothing_and_the_rest_everything() {
    let mut cfg = nak();
    cfg.liveness = LivenessConfig::evicting(6);
    let run = Run::new(cfg);
    let faults = Faults {
        down: vec![(1, None)],
        ..Faults::default()
    };
    for backend in ALL {
        let got = run.execute(backend, &faults).expect("runs");
        assert_eq!(got, run.everything_at(&[0, 2, 3]), "{backend:?}");
    }
}

#[test]
fn dup_reorder_and_corrupt_are_survived_where_injected_and_refused_on_sockets() {
    let mut cfg = nak();
    cfg.integrity = true;
    let run = Run::new(cfg);
    let faults = Faults {
        dup: 0.05,
        reorder: 0.05,
        corrupt: 0.05,
        ..Faults::default()
    };
    for backend in [Backend::Loopback, Backend::Sim] {
        let got = run.execute(backend, &faults).expect("runs");
        assert_eq!(got, run.everything_at(&[0, 1, 2, 3]), "{backend:?}");
    }
    let refused = run.execute(Backend::Udp, &faults).expect_err("refused");
    assert_eq!(refused.kind(), io::ErrorKind::Unsupported);
    assert!(refused.to_string().contains("`dup`"), "{refused}");
}

#[test]
fn a_receiver_that_comes_back_delivers_at_most_once_and_intact() {
    let mut cfg = nak();
    cfg.membership = true;
    let run = Run::new(cfg);
    // Back while the first message still waits for it, before six missed
    // 50 ms heartbeats would evict it: it rejoins and catches the tail.
    let back = Some(Duration::from_millis(100));
    let faults = Faults {
        down: vec![(1, back)],
        ..Faults::default()
    };
    let always_up = run.everything_at(&[0, 2, 3]);
    let rejoined = run.everything_at(&[1]);
    for backend in ALL {
        let got = run.execute(backend, &faults).expect("runs");
        let (up, back): (BTreeSet<_>, BTreeSet<_>) = got.iter().partition(|d| d.0 != 1);
        assert_eq!(up, always_up, "{backend:?}");
        assert!(back.is_subset(&rejoined), "{backend:?}: {back:?}");
        // The seeded backends pin the catch-up; on sockets it is timing.
        if !matches!(backend, Backend::Udp) {
            let last = run.n_messages as u64 - 1;
            assert!(back.iter().any(|d| d.1 == last), "{backend:?}: {back:?}");
        }
    }
}
