//! The serving binary: bind, load, announce, serve until SHUTDOWN.
//!
//! ```text
//! hot-server --addr 127.0.0.1:0 --dataset integer --keys 100000 \
//!            --ops 100000 --seed 42 --shards 2 \
//!            [--window N] [--idle-ms N] [--max-conns N]
//! ```
//!
//! Prints exactly one `LISTENING <addr>` line to stdout once the socket is
//! bound (scripts parse it to learn the OS-assigned port), then blocks
//! until a client sends a SHUTDOWN frame, and exits 0.

use hot_server::{start, ServerConfig};
use std::io::Write;
use std::time::Duration;

fn main() {
    let mut config = ServerConfig::default();
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                config.addr = args[i + 1].clone();
                i += 2;
            }
            "--dataset" => {
                config.kind = args[i + 1]
                    .parse()
                    .expect("--dataset url|email|yago|integer");
                i += 2;
            }
            "--keys" => {
                config.keys = args[i + 1].parse().expect("--keys N");
                i += 2;
            }
            "--ops" => {
                config.ops = args[i + 1].parse().expect("--ops N");
                i += 2;
            }
            "--seed" => {
                config.seed = args[i + 1].parse().expect("--seed N");
                i += 2;
            }
            "--shards" => {
                config.shards = args[i + 1].parse().expect("--shards N");
                i += 2;
            }
            "--window" => {
                config.window = args[i + 1].parse().expect("--window N");
                i += 2;
            }
            "--idle-ms" => {
                let ms: u64 = args[i + 1].parse().expect("--idle-ms N");
                config.idle_timeout = Duration::from_millis(ms);
                i += 2;
            }
            "--max-conns" => {
                config.max_connections = args[i + 1].parse().expect("--max-conns N");
                i += 2;
            }
            other => {
                eprintln!(
                    "unknown argument: {other} (expected --addr/--dataset/--keys/--ops/--seed/\
                     --shards/--window/--idle-ms/--max-conns)"
                );
                std::process::exit(2);
            }
        }
    }

    let handle = match start(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("hot-server: failed to start: {e}");
            std::process::exit(1);
        }
    };
    println!("LISTENING {}", handle.addr());
    std::io::stdout()
        .flush()
        .expect("announce the bound address");
    handle.join();
}
