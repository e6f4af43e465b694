//! `cargo xtask asan` — the test set of CI's `asan` lane under
//! AddressSanitizer (with LeakSanitizer) on the installed nightly.
//!
//! The nightly's prebuilt, uninstrumented std is used as is (no
//! `-Zbuild-std`, so no `rust-src` is needed): heap accesses from
//! workspace code are checked, std's own are not. The set is `hot-core`
//! (lib, integration tests and doctests), the `crossbeam-epoch`
//! stand-in, `hot-server` and `hot`'s `concurrent_stress`. Every binary
//! runs even when an earlier one fails (`--no-fail-fast`). One test is
//! skipped by its exact name: `chunks_are_backed_by_huge_pages` counts
//! the huge pages behind chunk memory, and ASan's allocator does not
//! give the chunks the pages the test expects — not a memory error.
//!
//! An ASan report aborts the test binary, so a report fails the command.

use std::process::{Command, ExitCode};

const TOOLCHAIN: &str = "nightly";
const TARGET: &str = "x86_64-unknown-linux-gnu";
const SKIPPED: &str = "store::tests::chunks_are_backed_by_huge_pages";

/// Run the ASan set; fail if any test binary failed or aborted.
pub fn asan() -> ExitCode {
    let root = crate::workspace_root();
    let version = Command::new("rustup")
        .args(["run", TOOLCHAIN, "rustc", "--version"])
        .output();
    match version {
        Ok(out) if out.status.success() => {
            print!("asan: toolchain {}", String::from_utf8_lossy(&out.stdout));
        }
        _ => {
            eprintln!("asan: no `{TOOLCHAIN}` toolchain (rustup run {TOOLCHAIN} rustc failed)");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "asan: not run here: TSan (the prebuilt std is not instrumented, so every \
         std-synchronized access reads as a race) and Miri (`cargo miri` is not installed)"
    );

    let target_dir = root.join("target").join("asan");
    let runs: [&[&str]; 2] = [
        &[
            "-p",
            "hot-core",
            "-p",
            "crossbeam-epoch",
            "-p",
            "hot-server",
            "--",
            "--exact",
            "--skip",
            SKIPPED,
        ],
        &["-p", "hot", "--test", "concurrent_stress"],
    ];
    let mut failed = Vec::new();
    for args in runs {
        let status = Command::new("rustup")
            .args([
                "run",
                TOOLCHAIN,
                "cargo",
                "test",
                "--target",
                TARGET,
                "--no-fail-fast",
            ])
            .args(args)
            .current_dir(&root)
            .env("RUSTFLAGS", "-Zsanitizer=address")
            .env("RUSTDOCFLAGS", "-Zsanitizer=address")
            .env("ASAN_OPTIONS", "detect_leaks=1")
            .env("CARGO_TARGET_DIR", &target_dir)
            .status();
        if !matches!(status, Ok(s) if s.success()) {
            failed.push(args.join(" "));
        }
    }
    if failed.is_empty() {
        println!("asan: ok — no AddressSanitizer or LeakSanitizer report, every test passed (skipped: {SKIPPED})");
        ExitCode::SUCCESS
    } else {
        for run in &failed {
            eprintln!("asan: FAILED: cargo test {run}");
        }
        ExitCode::FAILURE
    }
}
