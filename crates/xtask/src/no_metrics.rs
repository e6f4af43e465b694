//! `cargo xtask verify-no-metrics` — proves the `metrics` feature is
//! zero-cost when disabled, structurally: builds the fig8 binary *with*
//! the feature and asserts the `hot_metrics` crate name is present in the
//! binary (sanity-checking the probe), then builds it *without* and
//! asserts the name is absent — the instrumentation crate never even
//! links into a default build.

use std::path::Path;
use std::process::{Command, ExitCode};

/// Run the structural zero-cost proof.
pub fn verify_no_metrics() -> ExitCode {
    let root = crate::workspace_root();
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let binary = root
        .join("target")
        .join("release")
        .join(format!("fig8_throughput{}", std::env::consts::EXE_SUFFIX));
    let probe = b"hot_metrics";

    // First, with the feature: the crate name must show up (paths/symbols
    // in the binary), or the probe itself is broken and the second check
    // would pass vacuously.
    let with = Command::new(&cargo)
        .args([
            "build",
            "--release",
            "-p",
            "hot-bench",
            "--features",
            "metrics",
            "--bin",
            "fig8_throughput",
        ])
        .current_dir(&root)
        .status();
    if !matches!(with, Ok(s) if s.success()) {
        eprintln!("verify-no-metrics: instrumented build failed");
        return ExitCode::FAILURE;
    }
    match contains_bytes(&binary, probe) {
        Ok(true) => {
            println!("verify-no-metrics: probe ok (hot_metrics present in instrumented binary)")
        }
        Ok(false) => {
            eprintln!(
                "verify-no-metrics: probe broken: `hot_metrics` not found even in the \
                 --features metrics binary; the byte scan proves nothing"
            );
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("verify-no-metrics: cannot read {}: {e}", binary.display());
            return ExitCode::FAILURE;
        }
    }

    // Then the default build: not a single mention may survive.
    let without = Command::new(&cargo)
        .args([
            "build",
            "--release",
            "-p",
            "hot-bench",
            "--bin",
            "fig8_throughput",
        ])
        .current_dir(&root)
        .status();
    if !matches!(without, Ok(s) if s.success()) {
        eprintln!("verify-no-metrics: default build failed");
        return ExitCode::FAILURE;
    }
    match contains_bytes(&binary, probe) {
        Ok(false) => {
            println!(
                "verify-no-metrics: ok — default fig8 binary contains no hot_metrics \
                 code (the instrumentation crate is not even linked)"
            );
            ExitCode::SUCCESS
        }
        Ok(true) => {
            eprintln!(
                "verify-no-metrics: FAIL — `hot_metrics` found in the default build; \
                 the metrics feature leaks into uninstrumented binaries"
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("verify-no-metrics: cannot read {}: {e}", binary.display());
            ExitCode::FAILURE
        }
    }
}

/// Whether `needle` occurs anywhere in the file's bytes.
fn contains_bytes(path: &Path, needle: &[u8]) -> std::io::Result<bool> {
    let haystack = std::fs::read(path)?;
    Ok(haystack
        .windows(needle.len())
        .any(|window| window == needle))
}
