//! `mcastbench`'s command line: out-of-range values (an unknown backend
//! and a ring window no larger than the group among them), and options the
//! chosen backend cannot honour, are refused before anything runs.

use std::process::Command;

#[test]
fn sim_only_options_are_refused_on_the_udp_backend() {
    for (flag, value) in [("--loss", "0.01"), ("--seeds", "2"), ("--topology", "bus")] {
        let out = Command::new(env!("CARGO_BIN_EXE_mcastbench"))
            .args(["--backend", "udp", "--receivers", "2", "--size", "1000"])
            .args([flag, value])
            .output()
            .expect("run mcastbench");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(stderr.contains(flag), "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag}: the cluster ran");
    }
}

#[test]
fn out_of_range_options_are_refused_before_anything_runs() {
    for args in [
        &["--loss", "1"][..],
        &["--loss", "1.5"],
        &["--loss", "-0.1"],
        &["--loss", "NaN"],
        &["--receivers", "0"],
        &["--window", "0"],
        &["--poll", "0"],
        &["--packet", "0"],
        &["--packet", "70000"],
        &["--seeds", "0"],
        &["--protocol", "tree", "--height", "0"],
        &["--backend", "bogus"],
        &["--protocol", "ring", "--window", "2"],
        &["--backend", "udp", "--protocol", "ring", "--window", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mcastbench"))
            .args(["--receivers", "2", "--size", "1000", "--seeds", "1"])
            .args(args)
            .output()
            .expect("run mcastbench");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let flag = args[args.len() - 2];
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: the run started");
    }
}
