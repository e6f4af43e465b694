//! Workspace automation, invoked as `cargo xtask <command>` (the alias
//! lives in `.cargo/config.toml`). Everything here is dependency-free on
//! purpose — the build environment has no crates.io access, so the
//! commands are built from a shared hand-rolled Rust lexer
//! ([`lexer`]) and a mini TOML reader ([`toml`]) instead of syn/serde.
//! Performance is not gated here: `bench/` (`BENCHMARK.json`) is the one
//! performance gate (DESIGN.md §13.5).
//!
//! * [`asan`] (`cargo xtask asan`) — CI's AddressSanitizer test set on
//!   the installed nightly toolchain.
//! * [`lint`] (`cargo xtask lint [--json]`) — the five-pass workspace
//!   static-analysis suite: atomics-protocol conformance, hot-path
//!   allocation freedom, epoch-pin discipline, per-crate unsafe budgets,
//!   and a written justification on every `unsafe` site.
//! * [`no_metrics`] (`cargo xtask verify-no-metrics`) — structural proof
//!   that the `metrics` feature is zero-cost when disabled.
//! * [`server_smoke`] (`cargo xtask server-smoke`) — end-to-end network
//!   gate: real hot-server processes driven by the net_ycsb client with
//!   checksum verification and clean-shutdown assertions.

mod asan;
mod lexer;
mod lint;
mod no_metrics;
mod server_smoke;
mod toml;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo xtask <command>\n\navailable commands:\n  \
         asan                    run CI's AddressSanitizer test set on the nightly toolchain\n  \
         lint [--json]           run the workspace lint suite (atomics / hot-path / epoch / unsafe-budget / safety)\n  \
         verify-no-metrics       assert the default build links no hot_metrics code\n  \
         server-smoke            spawn hot-server per dataset/shard count and verify network YCSB checksums"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("asan") => asan::asan(),
        Some("lint") => lint::lint(args.next().as_deref() == Some("--json")),
        Some("verify-no-metrics") => no_metrics::verify_no_metrics(),
        Some("server-smoke") => server_smoke::server_smoke(),
        Some(other) => {
            eprintln!("unknown xtask command: {other}\n");
            usage()
        }
        None => usage(),
    }
}

/// Workspace root: xtask always runs from the workspace (cargo sets the
/// manifest dir of this crate at `<root>/crates/xtask`).
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask has a workspace root two levels up")
        .to_path_buf()
}
