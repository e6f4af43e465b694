//! `cargo xtask server-smoke` — the network CI lane's end-to-end gate.
//!
//! Builds the release `hot-server` and `net_ycsb` binaries, then for
//! every data set × shard count {1, 4}: spawns a real server process on
//! an ephemeral loopback port, parses the `LISTENING <addr>` line it
//! prints, and runs the network YCSB client against it with `--check`
//! (every workload A/C/E checksum must match the in-process driver
//! byte-for-byte) and `--shutdown` (the client's final frame stops the
//! server). Both processes must exit 0 — a wedged shutdown shows up as
//! the server process never exiting, which the wait-with-deadline below
//! turns into a failure rather than a hung CI job. Every cell reports the
//! start-up time it observed (process spawn to `LISTENING`). One further
//! cell starts both binaries with no flags at all, so the configuration
//! that ships is one that is checked, and one more keeps 1024 requests in
//! flight (`net_ycsb --window 1024`), so that one socket read carries
//! several server windows and the turn that answers them with one write
//! runs between real processes.
//!
//! One more server runs with `--max-conns 1`: a second connection must be
//! answered with the typed `overloaded` ERR frame, and a SHUTDOWN frame
//! on the admitted one must still stop the process cleanly.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Smoke scale: small enough for CI, large enough that windows refill
/// many times and every shard sees real traffic.
const KEYS: &str = "20000";
const OPS: &str = "20000";
const SEED: &str = "42";
const DATASETS: [&str; 4] = ["url", "email", "yago", "integer"];
const SHARD_COUNTS: [&str; 2] = ["1", "4"];
const SMOKE_ADDR: [&str; 2] = ["--addr", "127.0.0.1:0"];

/// How long a server process may take to wind down after the client's
/// SHUTDOWN frame before the smoke declares it wedged.
const SHUTDOWN_DEADLINE: Duration = Duration::from_secs(60);

/// Run the full matrix.
pub fn server_smoke() -> ExitCode {
    let root = crate::workspace_root();
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());

    let build = Command::new(&cargo)
        .args(["build", "--release", "-p", "hot-server", "-p", "hot-client"])
        .current_dir(&root)
        .status();
    if !matches!(build, Ok(s) if s.success()) {
        eprintln!("server-smoke: release build failed");
        return ExitCode::FAILURE;
    }
    let exe = std::env::consts::EXE_SUFFIX;
    let server_bin = root
        .join("target")
        .join("release")
        .join(format!("hot-server{exe}"));
    let client_bin = root
        .join("target")
        .join("release")
        .join(format!("net_ycsb{exe}"));

    for dataset in DATASETS {
        for shards in SHARD_COUNTS {
            let scale = [
                "--dataset",
                dataset,
                "--keys",
                KEYS,
                "--ops",
                OPS,
                "--seed",
                SEED,
            ];
            let server_args = [&SMOKE_ADDR[..], &scale[..], &["--shards", shards][..]].concat();
            let client_args = [&scale[..], &["--shards", shards][..]].concat();
            let label = format!("dataset={dataset} shards={shards} keys={KEYS} ops={OPS}");
            if let Err(e) = parity_cell(
                &server_bin,
                &client_bin,
                &root,
                &label,
                &server_args,
                &client_args,
            ) {
                eprintln!("server-smoke: {e} ({label})");
                return ExitCode::FAILURE;
            }
        }
    }
    // What ships: no flag on the server and none describing it on the
    // client, so `ServerConfig::default()` — the configuration
    // `BENCHMARK.json` gates — is what answers.
    if let Err(e) = parity_cell(&server_bin, &client_bin, &root, "no flags", &[], &[]) {
        eprintln!("server-smoke: {e} (no flags)");
        return ExitCode::FAILURE;
    }
    // 1024 requests in flight put several server windows into one read,
    // so the server's multi-window turns run here; the client's default
    // of 64 almost never fills more than one.
    let scale = [
        "--dataset",
        "url",
        "--keys",
        KEYS,
        "--ops",
        OPS,
        "--seed",
        SEED,
    ];
    let server_args = [&SMOKE_ADDR[..], &scale[..]].concat();
    let client_args = [&scale[..], &["--shards", "2", "--window", "1024"][..]].concat();
    let label = "dataset=url shards=2 client window=1024";
    if let Err(e) = parity_cell(
        &server_bin,
        &client_bin,
        &root,
        label,
        &server_args,
        &client_args,
    ) {
        eprintln!("server-smoke: {e} ({label})");
        return ExitCode::FAILURE;
    }
    if let Err(e) = connection_cap_smoke(&server_bin, &root) {
        eprintln!("server-smoke: --max-conns: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "server-smoke: ok — {} dataset(s) x {} shard count(s), a flag-less start and a \
         1024-deep client window: network checksums match in-process, clean shutdowns; \
         --max-conns refuses the excess connection with a typed error",
        DATASETS.len(),
        SHARD_COUNTS.len()
    );
    ExitCode::SUCCESS
}

/// One cell: a server started with `server_args`, `net_ycsb --check
/// --shutdown` over workloads A, C, E with `client_args`, and the server
/// process gone with exit code 0 afterwards.
fn parity_cell(
    server_bin: &Path,
    client_bin: &Path,
    root: &Path,
    label: &str,
    server_args: &[&str],
    client_args: &[&str],
) -> Result<(), String> {
    eprintln!("server-smoke: {label}");
    let (mut server, addr, startup) = spawn_server(server_bin, root, server_args)?;
    let client = Command::new(client_bin)
        .args([
            "--addr",
            &addr,
            "--workloads",
            "A,C,E",
            "--check",
            "--shutdown",
        ])
        .args(client_args)
        .current_dir(root)
        .status();
    match client {
        Ok(s) if s.success() => {}
        Ok(s) => {
            let _ = server.kill();
            return Err(format!("net_ycsb failed with {s}"));
        }
        Err(e) => {
            let _ = server.kill();
            return Err(format!("cannot spawn net_ycsb: {e}"));
        }
    }
    // The client's SHUTDOWN frame must wind the whole server down: every
    // connection thread joined, exit code 0.
    match wait_with_deadline(&mut server, SHUTDOWN_DEADLINE) {
        Some(status) if status.success() => {
            eprintln!("server-smoke: ok {label} (start-up {startup:.3} s, clean shutdown)");
            Ok(())
        }
        Some(status) => Err(format!("hot-server exited with {status}")),
        None => {
            let _ = server.kill();
            Err(format!(
                "hot-server still running {}s after SHUTDOWN — wedged",
                SHUTDOWN_DEADLINE.as_secs()
            ))
        }
    }
}

/// Spawn `hot-server` with `args`; returns the process, the address it
/// announced and the seconds that took.
fn spawn_server(bin: &Path, root: &Path, args: &[&str]) -> Result<(Child, String, f64), String> {
    let start = Instant::now();
    let mut server = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .current_dir(root)
        .spawn()
        .map_err(|e| format!("cannot spawn hot-server: {e}"))?;
    match read_listening_line(&mut server) {
        Ok(addr) => Ok((server, addr, start.elapsed().as_secs_f64())),
        Err(e) => {
            let _ = server.kill();
            Err(format!("no LISTENING line from hot-server: {e}"))
        }
    }
}

/// `--max-conns 1`: the first connection is served, the second gets one
/// `[len u32 LE][0x0F ERR][code 5 = overloaded]…` frame (DESIGN.md §18.1),
/// and SHUTDOWN (`[1, 0, 0, 0, 0x08]`) on the first stops the server.
fn connection_cap_smoke(bin: &Path, root: &Path) -> Result<(), String> {
    let args = [
        &SMOKE_ADDR[..],
        &["--keys", KEYS, "--ops", OPS, "--max-conns", "1"][..],
    ]
    .concat();
    let (mut server, addr, _) = spawn_server(bin, root, &args)?;
    let outcome = (|| {
        let io = |e: std::io::Error| e.to_string();
        let mut admitted = TcpStream::connect(&addr).map_err(io)?;
        let mut refused = TcpStream::connect(&addr).map_err(io)?;
        refused
            .set_read_timeout(Some(SHUTDOWN_DEADLINE))
            .map_err(io)?;
        let mut head = [0u8; 6];
        refused.read_exact(&mut head).map_err(io)?;
        if head[4..] != [0x0F, 5] {
            return Err(format!(
                "second connection got {head:02x?}, not an overloaded ERR frame"
            ));
        }
        admitted.write_all(&[1, 0, 0, 0, 0x08]).map_err(io)
    })();
    if outcome.is_err() {
        let _ = server.kill();
        return outcome;
    }
    match wait_with_deadline(&mut server, SHUTDOWN_DEADLINE) {
        Some(status) if status.success() => {
            eprintln!("server-smoke: ok --max-conns 1 (second connection refused, clean shutdown)");
            Ok(())
        }
        Some(status) => Err(format!("hot-server exited with {status}")),
        None => {
            let _ = server.kill();
            Err("hot-server still running after SHUTDOWN".to_string())
        }
    }
}

/// Read stdout lines until the `LISTENING <addr>` announcement.
fn read_listening_line(server: &mut Child) -> Result<String, String> {
    let stdout = server.stdout.take().ok_or("stdout not captured")?;
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Err("server closed stdout before announcing its address".into()),
            Ok(_) => {
                if let Some(addr) = line.trim().strip_prefix("LISTENING ") {
                    // Keep draining stdout in the background so the server
                    // never blocks on a full pipe.
                    std::thread::spawn(move || {
                        let mut sink = String::new();
                        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                            sink.clear();
                        }
                    });
                    return Ok(addr.to_string());
                }
            }
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// Poll-wait for the child with a deadline; `None` if it never exits.
fn wait_with_deadline(child: &mut Child, deadline: Duration) -> Option<std::process::ExitStatus> {
    let start = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Some(status),
            Ok(None) if start.elapsed() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Ok(None) => return None,
            Err(_) => return None,
        }
    }
}
