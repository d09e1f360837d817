//! A minimal on-disk fake workspace that `rmlint` runs *clean* against:
//! every file the rules read exists, and every counter and trace event
//! they audit is consistently declared, updated, asserted and documented.
//! Tests start from this known-clean tree and inject one violation at a
//! time.

use std::path::{Path, PathBuf};

/// Write `content` to `root/rel`, creating parent directories.
pub fn write(root: &Path, rel: &str, content: &str) {
    let path = root.join(rel);
    std::fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
    std::fs::write(path, content).expect("write fixture file");
}

/// Create a fresh fake workspace under the OS temp dir, keyed by `tag`
/// (tests in one binary run in threads — tags keep them isolated).
pub fn create(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("rmlint-fixture-{}-{tag}", std::process::id()));
    if root.exists() {
        std::fs::remove_dir_all(&root).expect("clear stale fixture");
    }
    std::fs::create_dir_all(&root).expect("create fixture root");

    write(
        &root,
        "Cargo.toml",
        "[workspace]\nmembers = [\"crates/*\"]\n",
    );

    // Core: an emitter of the one trace event, one span-instrumented hot
    // function, the counters and the config.
    write(
        &root,
        "crates/core/src/receiver.rs",
        "pub fn dispatch() {\n\
         \x20   emit(TraceEvent::DataSent);\n\
         }\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   #[test]\n\
         \x20   fn events_fire() { let _ = TraceEvent::DataSent; }\n\
         }\n",
    );
    write(
        &root,
        "crates/core/src/hot.rs",
        "pub fn encode(buf: &mut Vec<u8>) {\n\
         \x20   let _span = rmprof::span!(rmprof::Stage::WireEncode);\n\
         \x20   buf.push(1);\n\
         }\n",
    );
    write(
        &root,
        "crates/core/src/stats.rs",
        "define_stats! {\n\
         \x20   data_sent: sum,\n\
         }\n\
         pub fn bump(s: &mut Stats) { s.data_sent += 1; }\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   #[test]\n\
         \x20   fn counts() { assert!(Stats::default().data_sent == 0); }\n\
         }\n",
    );
    write(
        &root,
        "crates/core/src/config.rs",
        "pub struct ProtocolConfig {\n\
         \x20   pub window: usize,\n\
         }\n\
         impl ProtocolConfig {\n\
         \x20   pub fn validate(&self) -> Result<(), Error> {\n\
         \x20       if self.window == 0 { return Err(Error::Window); }\n\
         \x20       Ok(())\n\
         \x20   }\n\
         }\n",
    );
    write(
        &root,
        "crates/rmtrace/src/event.rs",
        "pub enum TraceEvent {\n    DataSent,\n}\n",
    );
    write(
        &root,
        "docs/OBSERVABILITY.md",
        "| data_sent | packets sent |\n| DataSent | a send |\n",
    );

    root
}
