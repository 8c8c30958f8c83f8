//! The lm4db serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <schema_prefill|decode_stream|text2sql_app> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1` it
//! runs the workload a second time with the benchmark's own spans on and
//! prints every per-layer metric, the spans' self times and the tracing
//! overhead. The last line of standard output is one JSON object. A run
//! whose outputs fail their check prints the failure instead of numbers
//! and exits with code 1. See `perfbench/README.md`.

mod serving;
mod stats;
mod text2sql_app;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use crate::serving::Kind;
use crate::trace::Tracer;

/// End-to-end metrics: name and unit. Every workload reports all of them,
/// and they make up the result line.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ttft_ms_p90", "ms"),
    ("itl_ms_p99", "ms"),
    ("e2e_ms_p90", "ms"),
    ("slo_attain", "share"),
    ("goodput_rps", "1/s"),
    ("decode_tok_s", "tok/s"),
    ("questions_per_s", "1/s"),
    ("exec_acc", "share"),
];

/// Medians of the end-to-end latencies. The report prints them; the result
/// line leaves them out. On a host whose cores run at two speeds in a
/// changing mix, a median moves with the mix: 25 % between two ten-seed
/// sets of the same code, where the 90th percentile moved 10 %.
const MEDIANS: &[(&str, &str)] = &[
    ("ttft_ms_p50", "ms"),
    ("itl_ms_p50", "ms"),
    ("e2e_ms_p50", "ms"),
];

/// Per-layer metrics of the traced run: name and unit. A layer a workload
/// does not reach through the public API reports 0 with no samples.
const PER_LAYER: &[(&str, &str)] = &[
    ("loadgen.arrivals_us_mean", "us"),
    ("loadgen.submit_lag_ms_p99", "ms"),
    ("loadgen.idle_share", "share"),
    ("serve.prefill_step_ms_p50", "ms"),
    ("serve.decode_step_ms_p50", "ms"),
    ("serve.step_ms_p50", "ms"),
    ("serve.step_ms_p99", "ms"),
    ("serve.busy_share", "share"),
    ("serve.submit_us_p50", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p90", "ms"),
    ("serve.prefix_hit_share", "share"),
    ("serve.batch_occupancy_mean", "seqs"),
    ("serve.steps", "count"),
    ("serve.prefill_tokens", "count"),
    ("serve.decoded_tokens", "count"),
    ("transformer.prefill_us_per_token", "us"),
    ("transformer.decode_us_per_token", "us"),
    ("transformer.kv_bytes_per_request", "bytes"),
    ("text2sql.predict_batch_ms_p50", "ms"),
    ("text2sql.mask_fill_us_p50", "us"),
    ("text2sql.sql_resolved_share", "share"),
    ("sql.run_sql_us_p50", "us"),
    ("sql.exec_error_share", "share"),
];

/// Workload names, as `--workload` takes them.
const WORKLOADS: &[&str] = &["schema_prefill", "decode_stream", "text2sql_app"];

/// Serving set-ups measured per run; `setup_s` is their median. The
/// `text2sql_app` set-up is one 20-second fine-tune and runs once.
const SERVING_SETUPS: usize = 9;

/// Worker threads of the tensor pool. One: on a host of a few shared cores a
/// second pool thread waits at every kernel's join for a core another
/// process holds, and the benchmark would measure the host's scheduler.
const POOL_THREADS: usize = 1;

/// Environment variables that change the program being measured.
const REFUSED_ENV: &[&str] = &[
    "LM4DB_TRACE",
    "LM4DB_FAULTS",
    "LM4DB_SAMPLE_STEPS",
    "LM4DB_METRICS_ADDR",
];

/// Measured values by metric name, each with its sample count.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, (f64, usize)>);

impl Metrics {
    /// Records `value`, measured over `samples` observations.
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        self.0.insert(name, (value, samples));
    }
}

/// What one measured window produced.
pub struct Window {
    /// Everything measured, end-to-end and per-layer alike.
    pub metrics: Metrics,
    /// Operations sent: engine requests or questions.
    pub attempted: u64,
    /// Failed, rejected or expired engine outcomes, and `run_sql` errors.
    pub failed: u64,
    /// Hash of the window's outputs; a pure function of the seed.
    pub fingerprint: u64,
    /// The untimed correctness pass.
    pub check: Result<(), String>,
    /// Length of the measured window, in seconds.
    pub wall_s: f64,
    /// The benchmark's spans (empty when untraced).
    pub tracer: Tracer,
    /// Lines for the report.
    pub notes: Vec<String>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Args),
    Smoke,
    RecordExec,
}

fn parse_args() -> Result<Mode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--smoke") {
        return Ok(Mode::Smoke);
    }
    if argv.iter().any(|a| a == "--record-exec") {
        return Ok(Mode::RecordExec);
    }
    let mut kv = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(k.as_str(), v.as_str());
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Mode::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The commit the checkout was made from, read from `.git/HEAD`.
fn commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown (no .git)".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(c) = std::fs::read_to_string(Path::new(".git").join(r)) {
        return c.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .map(|l| l[..l.len() - r.len()].trim().to_string())
        })
        .unwrap_or_else(|| format!("unknown ({r})"))
}

fn provenance(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let avx = is_x86_feature_detected!("avx");
    #[cfg(not(target_arch = "x86_64"))]
    let avx = false;
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "nproc={nproc} threads={} avx={avx} profile={profile} commit={} seed={seed}",
        lm4db_tensor::threads(),
        commit()
    )
}

/// A finished run: its windows (untraced, then traced when asked) and the
/// set-up times.
struct Run {
    windows: Vec<Window>,
    setup_s: Vec<f64>,
}

fn measure(workload: &str, seed: u64, seconds: f64, trace: bool) -> Run {
    let mut setup_s = Vec::new();
    let mut windows = Vec::new();
    if workload == "text2sql_app" {
        let t = Instant::now();
        let app = text2sql_app::setup();
        setup_s.push(t.elapsed().as_secs_f64());
        windows.push(text2sql_app::window(&app, seed, seconds, false));
        if trace {
            windows.push(text2sql_app::window(&app, seed, seconds, true));
        }
        return Run { windows, setup_s };
    }
    let kind = if workload == "schema_prefill" {
        Kind::SchemaPrefill
    } else {
        Kind::DecodeStream
    };
    for _ in 1..SERVING_SETUPS {
        let t = Instant::now();
        let model = serving::build_model();
        drop(serving::warm_engine(&model, kind));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    let model = serving::build_model();
    let engine = serving::warm_engine(&model, kind);
    setup_s.push(t.elapsed().as_secs_f64());
    windows.push(serving::window(&model, engine, kind, seed, seconds, false));
    if trace {
        let engine = serving::warm_engine(&model, kind);
        windows.push(serving::window(&model, engine, kind, seed, seconds, true));
    }
    Run { windows, setup_s }
}

fn json_metrics(names: &[(&str, &str)], m: &Metrics) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|(n, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                m.0.get(n).map_or(0.0, |v| v.0)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_table(names: &[(&str, &str)], m: &Metrics) {
    println!(
        "  {:<36} {:>14} {:<6} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for (n, u) in names {
        match m.0.get(n) {
            Some((v, s)) => println!("  {n:<36} {v:>14.4} {u:<6} {s:>8}"),
            None => println!("  {n:<36} {:>14} {u:<6} {:>8}", "n/a (0)", 0),
        }
    }
}

/// Checks the run, prints the report, and returns the result line and
/// whether the run passed.
fn report(workload: &str, seed: u64, seconds: f64, trace: bool, mut run: Run) -> (String, bool) {
    println!(
        "perfbench workload={workload} seed={seed} seconds={seconds} trace={}",
        u8::from(trace)
    );
    println!("provenance: {}", provenance(seed));
    let mut failures: Vec<String> = Vec::new();
    for (i, w) in run.windows.iter().enumerate() {
        let label = if i == 0 { "untraced" } else { "traced" };
        println!(
            "{label} window: {:.2} s, fingerprint {:#018x}",
            w.wall_s, w.fingerprint
        );
        for n in &w.notes {
            println!("  {n}");
        }
        if let Err(e) = &w.check {
            failures.push(format!("{label} window: {e}"));
        }
    }
    if run.windows.len() == 2 && run.windows[0].fingerprint != run.windows[1].fingerprint {
        failures.push("traced and untraced windows printed different output fingerprints".into());
    }
    let attempted: u64 = run.windows.iter().map(|w| w.attempted).sum();
    let failed: u64 = run.windows.iter().map(|w| w.failed).sum();
    println!(
        "operations: {attempted} sent, {failed} failed (error_rate {:.6})",
        stats::share(failed as f64, attempted as f64)
    );

    let setup = stats::median(&run.setup_s);
    match peak_rss_mb() {
        Ok(rss) => run.windows[0].metrics.put("peak_rss_mb", rss, 1),
        Err(e) => failures.push(e),
    }
    run.windows[0]
        .metrics
        .put("setup_s", setup, run.setup_s.len());

    let mut names = END_TO_END;
    let mut shown = &run.windows[0].metrics;
    if trace {
        let (untraced, traced) = (&run.windows[0], &run.windows[1]);
        println!("tracing overhead (traced - untraced, end-to-end metrics):");
        for (n, u) in END_TO_END[2..].iter().chain(MEDIANS) {
            let (a, b) = (untraced.metrics.0[n].0, traced.metrics.0[n].0);
            println!(
                "  {n:<20} {a:>12.4} -> {b:>12.4} {u:<6} ({:+.2}%)",
                stats::share(b - a, a) * 100.0
            );
        }
        let st = traced.tracer.self_times(0.0, traced.wall_s);
        let covered: f64 = st.values().map(|s| s.self_s).sum();
        println!(
            "span self times over the traced window ({:.3} s):",
            traced.wall_s
        );
        for (name, s) in &st {
            println!(
                "  {name:<24} n={:<7} total {:>9.3} s  self {:>9.3} s  {:>6.2}%",
                s.count,
                s.total_s,
                s.self_s,
                100.0 * s.self_s / traced.wall_s
            );
        }
        let coverage = covered / traced.wall_s;
        println!(
            "  self times sum to {:.2}% of the traced window's wall time",
            coverage * 100.0
        );
        if !(0.95..=1.0 + 1e-6).contains(&coverage) {
            failures.push(format!(
                "span self times cover {:.2}% of wall time, not within 5%",
                coverage * 100.0
            ));
        }
        let replayed = traced.tracer.self_times(traced.wall_s, f64::MAX);
        for (name, s) in &replayed {
            println!(
                "  replay {name:<17} n={:<7} total {:>9.3} s",
                s.count, s.total_s
            );
        }
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{workload}-seed{seed}.json"));
        match traced.tracer.write_chrome(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => failures.push(format!("writing {}: {e}", path.display())),
        }
        names = PER_LAYER;
        shown = &traced.metrics;
    }
    for (n, _) in END_TO_END.iter().chain(MEDIANS) {
        if !run.windows[0].metrics.0.contains_key(n) {
            failures.push(format!("end-to-end metric {n} was not measured"));
        }
    }
    for (n, (v, _)) in &shown.0 {
        if !v.is_finite() {
            failures.push(format!("metric {n} is not finite: {v}"));
        }
        assert!(
            END_TO_END
                .iter()
                .chain(MEDIANS)
                .chain(PER_LAYER)
                .any(|(x, _)| x == n),
            "metric {n} is measured but not declared with a unit"
        );
    }
    let ok = failures.is_empty();
    if ok {
        println!(
            "{} metrics:",
            if trace { "per-layer" } else { "end-to-end" }
        );
        print_table(names, shown);
        if !trace {
            println!("latency medians (report only, not in the result line):");
            print_table(MEDIANS, shown);
        }
        println!("check: passed");
        let line = format!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
            json_metrics(names, shown)
        );
        (line, true)
    } else {
        for f in &failures {
            println!("CHECK FAILED: {f}");
        }
        let line =
            format!("{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}");
        (line, false)
    }
}

/// Runs every workload briefly, untraced and traced, and checks that each
/// named metric prints with its unit and a finite value.
fn smoke() -> bool {
    let mut ok = true;
    for w in WORKLOADS {
        for trace in [false, true] {
            let run = measure(w, 1, 4.0, trace);
            let (line, passed) = report(w, 1, 4.0, trace, run);
            let names = if trace { PER_LAYER } else { END_TO_END };
            let missing: Vec<&str> = names
                .iter()
                .filter(|(n, u)| !line.contains(&format!("\"{n}\": {{\"value\": ")) || u.is_empty())
                .map(|(n, _)| *n)
                .collect();
            let finite = !line.contains("NaN") && !line.contains("inf");
            println!(
                "smoke {w} trace={}: {}",
                u8::from(trace),
                if passed && missing.is_empty() && finite {
                    "ok"
                } else {
                    "FAILED"
                }
            );
            if !missing.is_empty() {
                println!("  missing: {missing:?}");
            }
            ok &= passed && missing.is_empty() && finite;
        }
    }
    ok
}

fn main() -> ExitCode {
    for var in REFUSED_ENV {
        if std::env::var_os(var).is_some() {
            eprintln!(
                "perfbench: refusing to run with {var} set: it changes the program being measured"
            );
            return ExitCode::from(2);
        }
    }
    lm4db_tensor::set_threads(POOL_THREADS);
    let args = match parse_args() {
        Ok(Mode::Run(a)) => a,
        Ok(Mode::Smoke) => {
            return if smoke() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Ok(Mode::RecordExec) => {
            text2sql_app::record_exec();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1> | --smoke",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let run = measure(&args.workload, args.seed, args.seconds, args.trace);
    let (line, ok) = report(&args.workload, args.seed, args.seconds, args.trace, run);
    println!("{line}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
