//! `cargo xtask bench-check` — the CI perf-regression gate.
//!
//! Runs the fig8 smoke benchmark (`--keys 50000 --ops 50000 --bulk`), the
//! fig9 arena-footprint smoke (`--keys 50000
//! --arena`), the fig10 sharded-router smoke (`--shards 2,4`), and the
//! fig_net loopback-serving smoke (`--check`) in a
//! scratch working directory (`target/bench-check/`, so
//! the checked-in `results/` files are never clobbered). Because a
//! 50 k-op smoke cell is noisy on shared hosts, the smoke runs
//! `BENCH_CHECK_RUNS` times (default 3) and the two sides of the
//! comparison take opposite extremes: `bench-check --update` records each
//! field's WORST observation as the committed baseline under
//! `results/baselines/` — a floor the build demonstrably clears even on a
//! bad scheduling day — while a check judges each field by its BEST
//! observation. A field fails only when every fresh pass lands on the bad
//! side of the floor by more than the tolerance — 25% by default,
//! overridable via the `BENCH_CHECK_TOLERANCE` env var (e.g. `0.40`);
//! only bad-direction deviations fail, improvements are fine. Real code
//! regressions are persistent across passes, so they fall through the
//! floor; scheduler hiccups do not survive the extreme fold.
//!
//! Three field families are gated: `*_mops` throughputs (higher is
//! better), `*_bpk` bytes-per-key memory footprints from
//! `BENCH_arena.json`, and `*_us` latency percentiles from
//! `BENCH_net.json` (both lower is better — "worst" is the maximum, a
//! regression is growth past the baseline ceiling).

use crate::json::{self, Json};
use std::path::Path;
use std::process::{Command, ExitCode};

/// The smoke parameters: small enough for CI, large enough that the trie
/// leaves its root-only regime on every data set.
const SMOKE_ARGS: &[&str] = &[
    "--keys", "50000", "--ops", "50000", "--bulk", "--threads", "1,2",
];

/// The fig9 arena-footprint smoke: memory accounting is deterministic at
/// fixed keys/seed, so this side of the gate is noise-free. `--bulk` makes
/// the arena fill append in key order — the front-coded layout the space
/// claim is about.
const ARENA_SMOKE_ARGS: &[&str] = &["--keys", "50000", "--arena", "--bulk"];

/// The fig10 sharded-router smoke: an explicit `--keys` keeps the shard
/// section at smoke scale (it otherwise floors itself at 4 M keys), and
/// `--threads 1` skips the multi-thread sweep of the main section. Gates
/// the `shard*` rows' `lookup_mops`/`ycsb_c_mops` in `BENCH_shard.json`.
/// The op count is deliberately larger than fig8's: the YCSB cells time
/// windowed passes whose sub-millisecond spans would otherwise be pure
/// scheduler-noise measurements.
const SHARD_SMOKE_ARGS: &[&str] = &[
    "--keys", "20000", "--ops", "200000", "--threads", "1", "--shards", "2,4",
];

/// The fig_net serving smoke: the full dataset × shard matrix at 50 k
/// keys/ops over loopback, with every phase's checksum verified against
/// the in-process driver (`--check` turns a mismatch into a non-zero
/// exit, which fails the gate outright before any threshold comparison).
/// Gates the `net*` rows' `*_mops` throughputs and `*_us` latency
/// percentiles in `BENCH_net.json`.
const NET_SMOKE_ARGS: &[&str] = &["--keys", "50000", "--ops", "50000", "--check"];

/// The JSON reports the smokes produce and gate on.
const BENCH_FILES: &[&str] = &[
    "BENCH_batch.json",
    "BENCH_scan.json",
    "BENCH_bulk.json",
    "BENCH_arena.json",
    "BENCH_shard.json",
    "BENCH_net.json",
];

/// Fields gated with inverted polarity relative to `*_mops`: `*_bpk`
/// bytes-per-key footprints and `*_us` latency percentiles — for both,
/// "worst" is the maximum and a regression is growth past the baseline
/// ceiling.
fn lower_is_better(field: &str) -> bool {
    field.ends_with("_bpk") || field.ends_with("_us")
}

/// Run the gate (or refresh the committed baselines with `--update`).
pub fn bench_check(update: bool) -> ExitCode {
    let root = crate::workspace_root();
    let scratch = root.join("target").join("bench-check");
    let fresh_dir = scratch.join("results");
    let baseline_dir = root.join("results").join("baselines");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("bench-check: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }

    // A single 50 k-op smoke cell times a few tens of milliseconds — on a
    // busy/shared host that is 25–35% noisy run-to-run, which would flake a
    // 25% gate on a single draw. So the smoke runs N times and the two
    // sides of the comparison take opposite extremes: the committed
    // baseline (`--update`) keeps each field's WORST observation — a floor
    // the build demonstrably clears even on a bad scheduling day — while a
    // check judges each field by its BEST observation. Real code
    // regressions are persistent: they drag every pass down and fall
    // through the floor; scheduler hiccups do not survive the max.
    let runs = std::env::var("BENCH_CHECK_RUNS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(3);

    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    // (file name, [(row key, [(field, value)])]) under max / min folds.
    let mut best: BestTable = Vec::new();
    let mut floor: BestTable = Vec::new();
    for run in 1..=runs {
        let _ = std::fs::remove_dir_all(&fresh_dir);
        let smokes: [(&str, &[&str]); 4] = [
            ("fig8_throughput", SMOKE_ARGS),
            ("fig9_memory", ARENA_SMOKE_ARGS),
            ("fig10_scalability", SHARD_SMOKE_ARGS),
            ("fig_net", NET_SMOKE_ARGS),
        ];
        for (bin, args) in smokes {
            eprintln!(
                "bench-check: {bin} smoke run {run}/{runs} ({})",
                args.join(" ")
            );
            let status = Command::new(&cargo)
                .args(["run", "--release", "-p", "hot-bench", "--bin", bin, "--"])
                .args(args)
                .current_dir(&scratch)
                .status();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("bench-check: {bin} smoke failed with {s}");
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("bench-check: cannot spawn cargo: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        for name in BENCH_FILES {
            let rows = match load_rows(&fresh_dir.join(name)) {
                Ok(rows) => rows,
                Err(e) => {
                    eprintln!("bench-check: smoke run produced no {name}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            merge_fold(&mut best, name, rows.clone(), Fold::Best);
            merge_fold(&mut floor, name, rows, Fold::Floor);
        }
    }

    if update {
        if let Err(e) = std::fs::create_dir_all(&baseline_dir) {
            eprintln!("bench-check: cannot create {}: {e}", baseline_dir.display());
            return ExitCode::FAILURE;
        }
        for name in BENCH_FILES {
            let rows = floor
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, rows)| rows.as_slice())
                .unwrap_or(&[]);
            if let Err(e) = write_baseline(&baseline_dir.join(name), runs, rows) {
                eprintln!("bench-check: cannot update baseline {name}: {e}");
                return ExitCode::FAILURE;
            }
            println!("bench-check: baseline updated: results/baselines/{name} (per-field floor of {runs} passes)");
        }
        return ExitCode::SUCCESS;
    }

    let tolerance = match std::env::var("BENCH_CHECK_TOLERANCE") {
        Ok(v) => match v.parse::<f64>() {
            Ok(t) if t > 0.0 && t < 1.0 => t,
            _ => {
                eprintln!("bench-check: BENCH_CHECK_TOLERANCE must be a fraction in (0, 1), got {v:?}");
                return ExitCode::FAILURE;
            }
        },
        Err(_) => 0.25,
    };

    let mut failures = Vec::new();
    let mut checked = 0usize;
    for name in BENCH_FILES {
        let baseline = match load_rows(&baseline_dir.join(name)) {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!(
                    "bench-check: no baseline results/baselines/{name} ({e}); run `cargo xtask bench-check --update` and commit"
                );
                return ExitCode::FAILURE;
            }
        };
        let fresh = best
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, rows)| rows.clone())
            .unwrap_or_default();
        for (key, base_fields) in &baseline {
            let Some(new_fields) = fresh.iter().find(|(k, _)| k == key).map(|(_, f)| f) else {
                failures.push(format!("{name}: row {key} missing from fresh run"));
                continue;
            };
            for (field, base) in base_fields {
                let Some((_, new)) = new_fields.iter().find(|(f, _)| f == field) else {
                    failures.push(format!("{name}: {key}.{field} missing from fresh run"));
                    continue;
                };
                checked += 1;
                let ratio = if *base > 0.0 { new / base } else { 1.0 };
                if lower_is_better(field) {
                    // Lower is better (B/key footprints, latency µs): the
                    // baseline is a ceiling; growth past it by more than
                    // the tolerance fails.
                    let ceiling = base * (1.0 + tolerance);
                    if *new > ceiling {
                        failures.push(format!(
                            "{name}: {key}.{field} regressed: baseline {base:.3} -> {new:.3} ({:.0}% of baseline ceiling, allowed {:.0}%)",
                            ratio * 100.0,
                            (1.0 + tolerance) * 100.0
                        ));
                    } else {
                        println!(
                            "bench-check: ok {key}.{field}: {base:.3} -> {new:.3} ({:.0}% of ceiling baseline)",
                            ratio * 100.0
                        );
                    }
                } else {
                    let floor = base * (1.0 - tolerance);
                    if *new < floor {
                        failures.push(format!(
                            "{name}: {key}.{field} regressed: baseline {base:.3} -> {new:.3} Mops ({:.0}% of baseline, floor {:.0}%)",
                            ratio * 100.0,
                            (1.0 - tolerance) * 100.0
                        ));
                    } else {
                        println!(
                            "bench-check: ok {key}.{field}: {base:.3} -> {new:.3} Mops ({:.0}%)",
                            ratio * 100.0
                        );
                    }
                }
            }
        }
    }

    if failures.is_empty() {
        println!(
            "bench-check: {checked} throughput field(s) within {:.0}% of baseline",
            tolerance * 100.0
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("bench-check: FAIL {f}");
        }
        eprintln!(
            "\nbench-check: {} regression(s) beyond the {:.0}% tolerance. If the change \
             is an accepted trade-off, refresh with `cargo xtask bench-check --update` \
             (or raise BENCH_CHECK_TOLERANCE for a noisy runner).",
            failures.len(),
            tolerance * 100.0
        );
        ExitCode::FAILURE
    }
}

/// One BENCH_*.json as `(row key, [(field, value)])` pairs.
type RowTable = Vec<(String, Vec<(String, f64)>)>;

/// Per-field best-of-N accumulator: `(file name, rows)`.
type BestTable = Vec<(String, RowTable)>;

/// Which extreme a fold keeps per field. The check side keeps each
/// field's most favorable observation, the baseline side its least
/// favorable — and "favorable" flips for [`lower_is_better`] fields.
#[derive(Clone, Copy)]
enum Fold {
    /// Check side: max for `*_mops`, min for `*_bpk`.
    Best,
    /// Baseline side: min for `*_mops`, max for `*_bpk`.
    Floor,
}

impl Fold {
    fn pick(self, field: &str, old: f64, new: f64) -> f64 {
        let keep_max = matches!(self, Fold::Best) != lower_is_better(field);
        if keep_max {
            old.max(new)
        } else {
            old.min(new)
        }
    }
}

/// Fold one run's rows into a per-field accumulator, keeping the `side`'s
/// extreme per field.
fn merge_fold(table: &mut BestTable, name: &str, rows: RowTable, side: Fold) {
    let fi = table.iter().position(|(n, _)| n == name).unwrap_or_else(|| {
        table.push((name.to_string(), Vec::new()));
        table.len() - 1
    });
    let file = &mut table[fi].1;
    for (key, fields) in rows {
        let ri = file.iter().position(|(k, _)| *k == key).unwrap_or_else(|| {
            file.push((key.clone(), Vec::new()));
            file.len() - 1
        });
        let row = &mut file[ri].1;
        for (field, value) in fields {
            match row.iter_mut().find(|(f, _)| *f == field) {
                Some((_, old)) => *old = side.pick(&field, *old, value),
                None => row.push((field, value)),
            }
        }
    }
}

/// Write a baseline file in the same shape `load_rows` reads back: a
/// `rows` array of `{dataset, structure, <field>_mops...}` objects. The
/// row key is split back into its `dataset`/`structure` halves.
fn write_baseline(path: &Path, runs: usize, rows: &[(String, Vec<(String, f64)>)]) -> Result<(), String> {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"note\": \"bench-check baseline: per-field worst observation across {runs} smoke passes (min for *_mops, max for *_bpk)\",\n"
    ));
    out.push_str("  \"rows\": [\n");
    for (i, (key, fields)) in rows.iter().enumerate() {
        let (dataset, structure) = key.split_once('/').unwrap_or((key.as_str(), "?"));
        out.push_str(&format!(
            "    {{\"dataset\": \"{dataset}\", \"structure\": \"{structure}\""
        ));
        for (field, value) in fields {
            out.push_str(&format!(", \"{field}\": {value:.6}"));
        }
        out.push_str(if i + 1 < rows.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).map_err(|e| e.to_string())
}

/// Parse one BENCH_*.json into `(row key, [(field, value)])` pairs: the row
/// key is `dataset/structure`, the fields are every numeric `*_mops` entry.
fn load_rows(path: &Path) -> Result<RowTable, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let value = json::parse(&text)?;
    let rows = value
        .get("rows")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{}: no \"rows\" array", path.display()))?;
    let mut out = Vec::new();
    for row in rows {
        let dataset = row.get("dataset").and_then(Json::as_str).unwrap_or("?");
        let structure = row.get("structure").and_then(Json::as_str).unwrap_or("?");
        let key = format!("{dataset}/{structure}");
        let fields: Vec<(String, f64)> = row
            .entries()
            .iter()
            // p999 on a shared host is dominated by scheduler-preemption
            // spikes (single ops landing 3-4ms late) that survive even the
            // best-of-N/worst-of-N extreme folds; it is recorded in the
            // JSON for inspection but excluded from the gate — p50/p99 are
            // the stable latency gates.
            .filter(|(name, _)| {
                (name.ends_with("_mops") || lower_is_better(name)) && !name.contains("p999")
            })
            .filter_map(|(name, v)| v.as_f64().map(|x| (name.clone(), x)))
            .collect();
        if fields.is_empty() {
            return Err(format!(
                "{}: row {key} has no *_mops/*_bpk fields",
                path.display()
            ));
        }
        out.push((key, fields));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips_a_bench_report() {
        let doc = r#"{
          "bench": "fig8_workload_C_batched",
          "keys": 50000, "ops": 50000, "seed": 42, "batch": 8,
          "rows": [
            {"dataset": "url", "structure": "hot", "scalar_mops": 1.234, "batched_mops": 2.5},
            {"dataset": "int", "structure": "art", "scalar_mops": 3.0, "batched_mops": 4.75}
          ]
        }"#;
        let v = json::parse(doc).expect("parses");
        let rows = v.get("rows").and_then(Json::as_array).expect("rows");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("dataset").and_then(Json::as_str), Some("url"));
        assert_eq!(rows[1].get("batched_mops").and_then(Json::as_f64), Some(4.75));
        assert_eq!(v.get("keys").and_then(Json::as_f64), Some(50000.0));
        let mops: Vec<_> = rows[0]
            .entries()
            .iter()
            .filter(|(k, _)| k.ends_with("_mops"))
            .collect();
        assert_eq!(mops.len(), 2);
    }

    #[test]
    fn merge_fold_takes_the_extreme_per_field() {
        let run1 = vec![("url/HOT".to_string(), vec![("scalar_mops".to_string(), 2.0)])];
        let run2 = vec![("url/HOT".to_string(), vec![("scalar_mops".to_string(), 3.0)])];
        let mut best: BestTable = Vec::new();
        let mut floor: BestTable = Vec::new();
        for rows in [run1, run2] {
            merge_fold(&mut best, "BENCH_batch.json", rows.clone(), Fold::Best);
            merge_fold(&mut floor, "BENCH_batch.json", rows, Fold::Floor);
        }
        assert_eq!(best[0].1[0].1[0].1, 3.0);
        assert_eq!(floor[0].1[0].1[0].1, 2.0);
    }

    #[test]
    fn bpk_fields_fold_with_inverted_polarity() {
        let run1 = vec![(
            "url/HOT-arena".to_string(),
            vec![("arena_bpk".to_string(), 44.0)],
        )];
        let run2 = vec![(
            "url/HOT-arena".to_string(),
            vec![("arena_bpk".to_string(), 46.0)],
        )];
        let mut best: BestTable = Vec::new();
        let mut floor: BestTable = Vec::new();
        for rows in [run1, run2] {
            merge_fold(&mut best, "BENCH_arena.json", rows.clone(), Fold::Best);
            merge_fold(&mut floor, "BENCH_arena.json", rows, Fold::Floor);
        }
        // Lower is better: the check side keeps the minimum, the baseline
        // the maximum (a ceiling the build demonstrably stays under).
        assert_eq!(best[0].1[0].1[0].1, 44.0);
        assert_eq!(floor[0].1[0].1[0].1, 46.0);
        assert!(lower_is_better("arena_bpk"));
        assert!(!lower_is_better("scalar_mops"));
    }

    #[test]
    fn baseline_roundtrips_through_load_rows() {
        let rows = vec![
            (
                "url/HOT".to_string(),
                vec![("scalar_mops".to_string(), 1.5), ("batched_mops".to_string(), 2.25)],
            ),
            ("integer/BT".to_string(), vec![("alloc_mops".to_string(), 0.75)]),
        ];
        let dir = std::env::temp_dir().join("xtask-baseline-roundtrip");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_test.json");
        write_baseline(&path, 3, &rows).expect("writes");
        let back = load_rows(&path).expect("parses back");
        assert_eq!(back, rows);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(json::parse("{\"a\": }").is_err());
        assert!(json::parse("[1, 2").is_err());
        assert!(json::parse("{} trailing").is_err());
    }
}
