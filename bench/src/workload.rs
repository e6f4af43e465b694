//! One run of one workload: set-up, timed slices, checks, and the
//! metrics computed from them.

use crate::gen::CHUNK;
use crate::gen::{Corpus, OpGen, Results, Slice};
use crate::host;
use crate::json::Value;
use crate::layers;
use crate::run::{
    drive, Budget, ChunkLog, Engine, LibBatch, LibScalar, Phase, Scratch, Serve, PINNED_ONE_IN,
};
use crate::spec::{unit_of, EngineKind, Row, Spec, END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median, percentile};
use crate::trace::{self, Trace};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest slices a phase runs, whatever `--seconds` says.
const MIN_SLICES: usize = 3;
/// Chunks the log of the measured phase is sized (and pre-faulted) for.
const CHUNK_LOG_CAP: usize = 1 << 20;
/// Chunks per throughput window: a few milliseconds, short enough that
/// many windows of a run see no stall and no busy neighbour at all.
const WINDOW_CHUNKS: usize = 32;

/// `driver.little_ratio` — requests in flight ÷ (median rate × median
/// chunk latency) — is 1 in a steady closed loop. Outside the first range
/// the loop is not what the latency and throughput figures assume, and
/// the run is invalid. A serving run outside the second had stalls long
/// enough to pull medians and means apart: it is flagged disturbed.
const LITTLE_VALID: std::ops::RangeInclusive<f64> = 0.5..=2.0;
const LITTLE_STEADY: std::ops::RangeInclusive<f64> = 0.85..=1.15;
/// A run is flagged disturbed when the arithmetic spin before and after
/// it differ by more than this share …
const SPIN_TOLERANCE: f64 = 0.10;
/// … or when the host took a core away more often than this per 1000 ops.
/// Quiet runs on the sizing host stay below a tenth of it.
const INVOL_CTXSW_PER_KOP_LIMIT: f64 = 0.5;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Test-only: flip one expected TID, to show a wrong answer is caught.
    pub corrupt: bool,
    /// Where `trace-<workload>.jsonl` goes.
    pub out_dir: std::path::PathBuf,
}

/// Everything one run reports.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct, if it is not.
    pub faults: Vec<String>,
    pub disturbed: bool,
    pub slices: usize,
    pub slice_ops: usize,
    /// The contract's metrics for this mode: end-to-end, or per-layer.
    pub metrics: Vec<Row>,
    /// Qualifiers that are not part of the contract for this mode.
    pub diagnostics: Vec<Row>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.faults.is_empty()
    }

    fn metrics_json(rows: &[Row]) -> Value {
        Value::obj(rows.iter().map(|&(name, value)| {
            let unit = Value::str(unit_of(name));
            (
                name,
                Value::obj([("value", Value::Num(value)), ("unit", unit)]),
            )
        }))
    }

    /// The one-line result the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Self::metrics_json(&self.metrics)),
        ])
        .render()
    }

    /// The run as it is stored in a result file.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("workload", Value::str(self.workload)),
            ("seed", Value::Num(self.seed as f64)),
            ("trace", Value::Bool(self.trace)),
            ("correct", Value::Bool(self.correct())),
            (
                "faults",
                Value::Arr(self.faults.iter().map(Value::str).collect()),
            ),
            ("disturbed", Value::Bool(self.disturbed)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("slices", Value::Num(self.slices as f64)),
            ("slice_ops", Value::Num(self.slice_ops as f64)),
            ("metrics", Self::metrics_json(&self.metrics)),
            ("diagnostics", Self::metrics_json(&self.diagnostics)),
        ])
    }
}

/// Run `spec` once.
pub fn run(spec: &Spec, opt: &Options) -> Result<Report, String> {
    match spec.engine {
        EngineKind::LibBatch => run_with::<LibBatch>(spec, opt),
        EngineKind::LibScalar => run_with::<LibScalar>(spec, opt),
        EngineKind::Serve => run_with::<Serve>(spec, opt),
    }
}

/// The speed figures of a phase. What the host does to a run is
/// one-sided — a busy hyperthread sibling, a stolen core, a polluted
/// cache only ever slow it down, for seconds at a time — so the figures
/// two commits are compared on are the undisturbed envelope: the rate the
/// best twentieth of the windows sustained, the latency of the fastest
/// twentieth of the chunks. The medians say what this host made of it.
struct Speed {
    throughput_mops: f64,
    window_p50_mops: f64,
    lat_p05_us: f64,
    lat_p50_us: f64,
    lat_p99_us: f64,
    slice_iqr_pct: f64,
}

/// Rates (Mops) of the windows of [`WINDOW_CHUNKS`] chunks inside each
/// slice, from one window's last completion to the next one's.
fn window_rates(done_ns: &[u64], chunks_per_slice: usize) -> Vec<f64> {
    let mut rates = Vec::new();
    for slice in done_ns.chunks(chunks_per_slice) {
        for pair in slice.chunks(WINDOW_CHUNKS).collect::<Vec<_>>().windows(2) {
            let elapsed = pair[1][pair[1].len() - 1] - pair[0][pair[0].len() - 1];
            rates.push((pair[1].len() * CHUNK) as f64 * 1e3 / elapsed.max(1) as f64);
        }
    }
    rates
}

fn speed_of(phase: &Phase, slice_ops: usize) -> Speed {
    let mut slice_rates: Vec<f64> = phase
        .slice_secs
        .iter()
        .map(|s| slice_ops as f64 / s / 1e6)
        .collect();
    let mut rates = window_rates(&phase.chunks.done_ns, slice_ops / CHUNK);
    let mut lat = phase.chunks.lat_ns.clone();
    lat.sort_unstable();
    rates.sort_unstable_by(f64::total_cmp);
    Speed {
        throughput_mops: percentile(&rates, 95.0),
        window_p50_mops: percentile(&rates, 50.0),
        lat_p05_us: percentile(&lat, 5.0) as f64 / 1e3,
        lat_p50_us: percentile(&lat, 50.0) as f64 / 1e3,
        lat_p99_us: percentile(&lat, 99.0) as f64 / 1e3,
        slice_iqr_pct: if slice_rates.len() >= 2 {
            100.0 * iqr_share(&mut slice_rates)
        } else {
            0.0
        },
    }
}

fn run_with<E: Engine>(spec: &Spec, opt: &Options) -> Result<Report, String> {
    let embedded = spec.engine == EngineKind::LibScalar;
    let pinned = if embedded {
        spec.loaded / PINNED_ONE_IN
    } else {
        0
    };
    let spin_before = host::spin_mops();

    // Harness side: corpus, generator, and every buffer the slices use,
    // staged with the first slice so they are resident before the baseline.
    let corpus = Corpus::generate(spec.kind, spec.universe, spec.loaded, embedded, opt.seed);
    let sort_start = Instant::now();
    let order = if E::SORTED_LOAD || opt.trace {
        corpus.sorted(spec.loaded)
    } else {
        Vec::new()
    };
    let sort_secs = sort_start.elapsed().as_secs_f64();
    let mut gen = OpGen::new(&corpus, spec.mix, pinned, opt.seed);
    let mut slice = Slice::default();
    let gen_start = Instant::now();
    gen.fill(&corpus, &mut slice, spec.slice_ops);
    let mut scratch = Scratch::default();
    E::prepare(&corpus, &slice, &mut scratch);
    let first_gen_secs = gen_start.elapsed().as_secs_f64();
    if opt.corrupt {
        slice.expect[0] ^= 1;
    }
    let mut got = Results::default();
    got.reset(spec.slice_ops);
    let mut off = Trace::off();
    let log = ChunkLog::prefaulted(CHUNK_LOG_CAP);

    let rss_base = host::rss_bytes();
    let (mut engine, first_setup) = E::set_up(&corpus, &order)?;
    let mut setups = vec![first_setup];

    // The measured phase. A traced run spends half its seconds here (the
    // reference the traced slices are compared with), the rest traced.
    let seconds = if opt.trace {
        opt.seconds / 2.0
    } else {
        opt.seconds
    };
    let budget = |secs: f64, warm_slices: usize| Budget {
        warm_slices,
        measure: Duration::from_secs_f64(secs),
        min_slices: if opt.quick { 2 } else { MIN_SLICES },
        max_slices: if opt.quick { 2 } else { usize::MAX },
    };
    let mut phase = drive::<E, false>(
        &mut engine,
        &corpus,
        &mut gen,
        &mut slice,
        &mut scratch,
        &mut got,
        &mut off,
        &budget(seconds, usize::from(!opt.quick)),
        log,
        true,
    )?;
    phase.gen_secs += first_gen_secs;
    let rss_after = host::rss_bytes();

    let mut faults = Vec::new();
    let live = gen.live_count();
    match engine.live_keys() {
        Ok(keys) if keys == live => {}
        Ok(keys) => faults.push(format!("index holds {keys} keys, generator expects {live}")),
        Err(e) => faults.push(e),
    }
    if let Err(e) = engine.check() {
        faults.push(format!("invariant check: {e}"));
    }

    // The traced phase: same loop, spans on.
    let mut traced = None;
    if opt.trace {
        let mut tr = Trace::new();
        let p = drive::<E, true>(
            &mut engine,
            &corpus,
            &mut gen,
            &mut slice,
            &mut scratch,
            &mut got,
            &mut tr,
            // Already warm, and the span buffer is too small to spend on it.
            &budget(opt.seconds / 4.0, 0),
            ChunkLog::default(),
            false,
        )?;
        let path = opt.out_dir.join(format!("trace-{}.jsonl", spec.name));
        tr.write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        traced = Some((p, tr));
    }
    let reader = engine.finish();

    // Set-up again, for a median: set-up is seconds long and paid once, so
    // one sample would be the noisiest number in the run.
    if !opt.trace && !opt.quick {
        for _ in 1..SETUPS {
            let (again, secs) = E::set_up(&corpus, &order)?;
            again.finish();
            setups.push(secs);
        }
    }
    let spin_after = host::spin_mops();

    let speed = speed_of(&phase, spec.slice_ops);
    let rates: Vec<String> = phase
        .slice_secs
        .iter()
        .map(|s| format!("{:.3}", spec.slice_ops as f64 / s / 1e6))
        .collect();
    println!("{} slices_mops {}", spec.name, rates.join(" "));
    println!("{} setups_s {:.3?}", spec.name, setups);
    let ops = (phase.slice_secs.len() * spec.slice_ops) as f64;
    let mut attempted = phase.ops + reader.ops;
    let mut failed = phase.failed + reader.failed;
    let little_ratio = E::IN_FLIGHT as f64 / (speed.window_p50_mops * speed.lat_p50_us);
    if !LITTLE_VALID.contains(&little_ratio) && !opt.quick {
        faults.push(format!("driver.little_ratio {little_ratio:.3} outside {LITTLE_VALID:?}: not a saturated closed loop"));
    }
    let invol_per_kop = phase.ctxsw.1 as f64 / ops * 1e3;
    let spin_gap = (spin_after - spin_before).abs() / spin_before.max(spin_after);
    let disturbed = spin_gap > SPIN_TOLERANCE
        || invol_per_kop > INVOL_CTXSW_PER_KOP_LIMIT
        || (E::DRIVER_POLLS && !LITTLE_STEADY.contains(&little_ratio));

    // Cores busy per slice (CPU ÷ wall), the median of that, over the
    // rate: a stall inflates the CPU time the guest is charged and the
    // slice's wall time alike, so the ratio is as steady as the windowed
    // rate, where CPU ÷ ops of a slice is as shaky as the slice's rate.
    let mut busy_cores: Vec<f64> = phase
        .slice_cpu_ns
        .iter()
        .zip(&phase.slice_secs)
        .map(|(&cpu_ns, wall_s)| cpu_ns as f64 / 1e9 / wall_s)
        .collect();
    let cpu_us_per_op = median(&mut busy_cores) / speed.throughput_mops;
    let end_to_end: Vec<Row> = vec![
        ("setup_s", median(&mut setups)),
        ("throughput_mops", speed.throughput_mops),
        ("lat_p05_us", speed.lat_p05_us),
        ("cpu_us_per_op", cpu_us_per_op),
        (
            "rss_per_key_b",
            rss_after.saturating_sub(rss_base) as f64 / live as f64,
        ),
    ];
    debug_assert!(end_to_end
        .iter()
        .map(|m| m.0)
        .eq(END_TO_END.iter().map(|m| m.name)));
    let mut qualifiers: Vec<Row> = vec![
        ("proc.user_us_per_op", phase.cpu_user * 1e6 / ops),
        ("proc.sys_us_per_op", phase.cpu_sys * 1e6 / ops),
        ("proc.vol_ctxsw_per_kop", phase.ctxsw.0 as f64 / ops * 1e3),
        ("proc.invol_ctxsw_per_kop", invol_per_kop),
        ("driver.window_p50_mops", speed.window_p50_mops),
        ("driver.lat_p50_us", speed.lat_p50_us),
        ("driver.lat_p99_us", speed.lat_p99_us),
        ("driver.slice_iqr_pct", speed.slice_iqr_pct),
        ("driver.little_ratio", little_ratio),
        ("ycsb.gen_ns_per_op", phase.gen_secs * 1e9 / ops),
        ("host.spin_mops", spin_before.min(spin_after)),
    ];
    let mut extras: Vec<Row> = vec![("host.spin_gap_pct", 100.0 * spin_gap)];
    if reader.ops > 0 {
        extras.push(("sync.bg_reader_mops", reader.ops as f64 / reader.secs / 1e6));
    }

    let (metrics, diagnostics) = match traced {
        None => {
            qualifiers.extend(extras);
            (end_to_end, qualifiers)
        }
        Some((tphase, tr)) => {
            attempted += tphase.ops;
            failed += tphase.failed;
            let tspeed = speed_of(&tphase, spec.slice_ops);
            let totals = trace::totals(&tr.spans);
            let chunk = trace::total_of(&totals, "chunk");
            qualifiers.push((
                "trace.overhead_pct",
                100.0 * (1.0 - tspeed.throughput_mops / speed.throughput_mops),
            ));
            qualifiers.push((
                "trace.chunk_self_pct",
                100.0 * chunk.self_ns as f64 / chunk.total_ns.max(1) as f64,
            ));
            for (name, t) in &totals {
                println!(
                    "{} span {name} count {} mean_ns {:.0} self_share {:.3}",
                    spec.name,
                    t.count,
                    t.total_ns as f64 / t.count as f64,
                    t.self_ns as f64 / t.total_ns.max(1) as f64
                );
            }
            // The layer rows want a tuple store; an embedded-key corpus
            // gets arena TIDs for them. Everything that borrowed it is done.
            drop((tr, scratch, gen));
            let corpus = corpus.with_arena_tids();
            let layer_rows = layers::measure(&corpus, &order, sort_secs, spec.mix.zipf, opt.seed)?;
            failed += layer_rows.failed;
            attempted += layer_rows.attempted;
            qualifiers.extend(layer_rows.rows);
            // In the contract's order, and nothing but the contract's names.
            let per_layer = PER_LAYER
                .iter()
                .map(|m| {
                    let found = qualifiers.iter().find(|q| q.0 == m.name);
                    (
                        m.name,
                        found.unwrap_or_else(|| panic!("no value for {}", m.name)).1,
                    )
                })
                .collect();
            extras.extend(end_to_end);
            (per_layer, extras)
        }
    };
    if failed > 0 {
        faults.push(format!("{failed} of {attempted} ops answered wrongly"));
    }
    Ok(Report {
        workload: spec.name,
        seed: opt.seed,
        trace: opt.trace,
        attempted,
        failed,
        faults,
        disturbed,
        slices: phase.slice_secs.len(),
        slice_ops: spec.slice_ops,
        metrics,
        diagnostics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    /// Each workload shrunk to a few thousand keys and two small slices.
    fn tiny(spec: &Spec) -> Spec {
        Spec {
            loaded: 3000,
            universe: 3000 + (spec.universe - spec.loaded).min(1000),
            slice_ops: 96 * CHUNK,
            ..*spec
        }
    }

    fn options(trace: bool, corrupt: bool) -> Options {
        // Under the package's ignored `out/`: tests write nowhere else.
        let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-{}", std::process::id()));
        Options {
            seed: 5,
            seconds: 0.2,
            trace,
            quick: true,
            corrupt,
            out_dir,
        }
    }

    #[test]
    fn every_workload_runs_and_checks_out() {
        for spec in &WORKLOADS {
            let report = run(&tiny(spec), &options(false, false)).unwrap();
            assert!(report.correct(), "{}: {:?}", spec.name, report.faults);
            assert_eq!(report.failed, 0);
            assert!(report.attempted >= 2 * 96 * CHUNK as u64);
            assert!(report
                .metrics
                .iter()
                .map(|m| m.0)
                .eq(END_TO_END.iter().map(|m| m.name)));
            // At this size, with other tests sharing the process, the RSS
            // delta may round to nothing; the rest is never zero.
            let positive = |m: &Row| m.1.is_finite() && (m.1 > 0.0 || m.0 == "rss_per_key_b");
            assert!(report.metrics.iter().all(positive), "{:?}", report.metrics);
        }
    }

    #[test]
    fn one_wrong_expectation_fails_the_run() {
        for spec in [&WORKLOADS[1], &WORKLOADS[3]] {
            let report = run(&tiny(spec), &options(false, true)).unwrap();
            assert_eq!(report.failed, 1, "{}", spec.name);
            assert!(!report.correct());
        }
    }

    #[test]
    fn a_traced_run_reports_every_per_layer_metric_and_writes_its_trace() {
        let opt = options(true, false);
        let report = run(&tiny(&WORKLOADS[1]), &opt).unwrap();
        assert!(report.correct(), "{:?}", report.faults);
        assert!(report
            .metrics
            .iter()
            .map(|m| m.0)
            .eq(PER_LAYER.iter().map(|m| m.name)));
        assert!(
            report.metrics.iter().all(|m| m.1.is_finite()),
            "{:?}",
            report.metrics
        );
        let trace =
            std::fs::read_to_string(opt.out_dir.join("trace-lib-churn-int1m.jsonl")).unwrap();
        let first = crate::json::parse(trace.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("name").and_then(Value::as_str), Some("chunk"));
        assert_eq!(first.get("parent"), Some(&Value::Null));
        std::fs::remove_dir_all(&opt.out_dir).unwrap();
    }

    #[test]
    fn window_rates_stay_inside_slices() {
        // Two slices of 96 chunks, one chunk per microsecond, 10 ms apart:
        // the gap between the slices must not show up as a slow window.
        let done: Vec<u64> = (0..192u64)
            .map(|i| i * 1000 + (i / 96) * 10_000_000)
            .collect();
        let rates = window_rates(&done, 96);
        assert_eq!(rates.len(), 4);
        for r in rates {
            assert!((r - CHUNK as f64).abs() < 1e-9, "{r}");
        }
    }
}
