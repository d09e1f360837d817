//! `mcastbench`'s command line: options the chosen backend cannot honour
//! are refused, not ignored.

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
