//! A minimal on-disk fake workspace that `rmlint` runs *clean* against:
//! the workspace manifest and one span-instrumented hot function that
//! allocates nothing. Tests start from this known-clean tree and inject
//! one violation at a time.

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
    write(
        &root,
        "crates/core/src/hot.rs",
        "pub fn encode(buf: &mut Vec<u8>) {\n\
         \x20   let _span = rmprof::span!(rmprof::Stage::WireEncode);\n\
         \x20   buf.push(1);\n\
         }\n",
    );
    // The other hot-path dirs exist, with nothing in them to flag.
    for dir in rmcheck::lint::HOT_PATH_DIRS {
        std::fs::create_dir_all(root.join(dir)).expect("create hot-path dir");
    }

    root
}
