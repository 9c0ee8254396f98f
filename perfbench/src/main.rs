//! `perfbench` — the end-to-end and per-layer benchmark of the edge-kmeans
//! pipelines. Build and run it through `python3 perfbench/run.py`:
//!
//! ```text
//! python3 perfbench/run.py --workload alg4-tcp --seed 42 --seconds 15 --trace 0
//! python3 perfbench/run.py                  # every workload, one process
//! python3 perfbench/run.py --trace 1 --seconds 0   # decorators are transparent
//! ```
//!
//! With `--trace 0` a run prints the end-to-end metrics (no decorators,
//! no spans); with `--trace 1` it runs the same untraced jobs, then as
//! many traced ones, fails unless both give the same bits, and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object; spans and the host record go to `perfbench/out/`. See
//! `perfbench/NOTES.md`.

mod trace;
mod workload;

use edge_kmeans::linalg::Matrix;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{timed, Span, SpanScope, Tracer};
use workload::{Backend, Job, Prepared, Spec, WORKLOADS};

/// Set-ups before the first job. One more follows every untraced job,
/// so that `setup_s`, their median, samples the host over the same
/// stretch of time as `job_s`: a set-up of a tenth of a second read in
/// one short window measures the host's speed of that moment.
const SETUP_REPEATS: usize = 3;
/// Jobs per run even when `--seconds` runs out first, so every median
/// has several samples.
const MIN_JOBS: u32 = 3;

/// Every per-layer metric a traced run prints, with its unit. A layer a
/// workload does not use reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_s", "s"),
    ("data.partition_s", "s"),
    ("net.connect_s", "s"),
    ("net.driver_send_s", "s"),
    ("net.driver_recv_wait_s", "s"),
    ("net.source_send_s", "s"),
    ("net.source_recv_wait_s", "s"),
    ("net.rounds", "count"),
    ("net.uplink_bits", "bit"),
    ("net.downlink_bits", "bit"),
    ("net.uplink_messages", "count"),
    ("executor.jl.wall_s", "s"),
    ("executor.jl.cpu_s", "s"),
    ("executor.fss.wall_s", "s"),
    ("executor.fss.cpu_s", "s"),
    ("executor.qt.wall_s", "s"),
    ("executor.qt.cpu_s", "s"),
    ("executor.dispca.wall_s", "s"),
    ("executor.dispca.cpu_s", "s"),
    ("executor.disss.wall_s", "s"),
    ("executor.disss.cpu_s", "s"),
    ("executor.deliver.wall_s", "s"),
    ("executor.deliver.cpu_s", "s"),
    ("executor.transmit.wall_s", "s"),
    ("executor.transmit.cpu_s", "s"),
    ("executor.busy_s_max", "s"),
    ("executor.thread_cpu_s", "s"),
    ("driver.self_s", "s"),
    ("driver.self_cpu_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.held_bytes", "bytes"),
    ("engine.nr.wall_s", "s"),
    ("engine.fss.wall_s", "s"),
    ("engine.jl-fss.wall_s", "s"),
    ("engine.fss-jl.wall_s", "s"),
    ("engine.jl-fss-jl.wall_s", "s"),
    ("engine.bklw.wall_s", "s"),
    ("engine.jl-bklw.wall_s", "s"),
    ("engine.jl-fss-qt4.wall_s", "s"),
    ("engine.jl-fss-qt8.wall_s", "s"),
    ("engine.jl-fss-qt12.wall_s", "s"),
    ("engine.jl-stream-qt.wall_s", "s"),
    ("evaluation.reference_s", "s"),
    ("evaluation.cost_s", "s"),
    ("program.source_seconds", "s"),
    ("program.server_seconds", "s"),
    ("trace.job_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 42,
        seconds: 15.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && workload::find(&args.workload).is_none() {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload '{}' (one of: all, {})",
            args.workload,
            names.join(", ")
        ));
    }
    Ok(args)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A sum that is +0 when empty (`Iterator::sum` starts from -0).
fn sum(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, |a, b| a + b)
}

fn mean(values: &[f64]) -> f64 {
    sum(values.iter().copied()) / values.len() as f64
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The machine a result was measured on.
fn host_record(seed: u64) -> String {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu_model = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let loadavg: Vec<String> = read("/proc/loadavg")
        .split_whitespace()
        .take(3)
        .map(String::from)
        .collect();
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"seed\": {seed}, \"nproc\": {}, \"cpu_model\": {}, \"kernel\": {}, \"rustc\": {}, \
         \"rustflags\": {}, \"worker_count\": {}, \"loadavg_at_start\": [{}]}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&cpu_model),
        json_str(read("/proc/sys/kernel/osrelease").trim()),
        json_str(&env("PERFBENCH_RUSTC")),
        json_str(&env("PERFBENCH_RUSTFLAGS")),
        edge_kmeans::linalg::parallel::worker_count(),
        loadavg.join(", ")
    )
}

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What a pass of closed-loop jobs leaves.
struct Pass {
    /// The passing jobs with their ids.
    jobs: Vec<(u32, Job)>,
    failed: usize,
    /// The highest VmHWM of a job, reset before each.
    peak_rss_mb: f64,
}

/// Closed-loop jobs for at least `budget` of job time and at least
/// `MIN_JOBS`, with ids from `first_job`; traced when a tracer is given.
/// Each job is checked; a failed or mismatching one is counted and
/// dropped. With `setups`, one set-up follows every job, outside the
/// job's peak RSS and the budget, and its timings are appended.
fn run_jobs(
    prep: &Prepared,
    budget: Duration,
    tracer: Option<&Tracer>,
    first_job: u32,
    mut setups: Option<&mut Vec<(f64, f64)>>,
) -> Pass {
    let mut pass = Pass {
        jobs: Vec::new(),
        failed: 0,
        peak_rss_mb: 0.0,
    };
    let start = Instant::now();
    let mut setup_time = Duration::ZERO;
    let mut id = first_job;
    while id - first_job < MIN_JOBS || start.elapsed() - setup_time < budget {
        let scope = tracer.map(|t| SpanScope::root(t, "job", id));
        reset_peak_rss();
        let result = workload::run_job(prep, scope);
        pass.peak_rss_mb = pass.peak_rss_mb.max(peak_rss_mb());
        if let Some(s) = scope {
            s.tracer.close(s.parent);
        }
        match result.and_then(|job| workload::check(prep, &job).map(|()| job)) {
            Ok(job) => pass.jobs.push((id, job)),
            Err(e) => {
                eprintln!("{}: job {id} failed: {e}", prep.spec.name);
                pass.failed += 1;
            }
        }
        if let Some(timings) = setups.as_deref_mut() {
            let t0 = Instant::now();
            match set_up(prep.spec, prep.seed, None) {
                Ok((_, timing)) => timings.push(timing),
                Err(e) => {
                    eprintln!("{}: set-up after job {id} failed: {e}", prep.spec.name);
                    pass.failed += 1;
                }
            }
            setup_time += t0.elapsed();
        }
        id += 1;
    }
    pass
}

struct Outcome {
    attempted: usize,
    failed: usize,
    /// `(name, value, unit)` in print order.
    metrics: Vec<(String, f64, &'static str)>,
}

/// A workload's data and its per-source shards.
type Inputs = (Matrix, Vec<Matrix>);

/// Builds the workload's inputs once: generate and normalize the
/// dataset, then partition it. Returns them with the (generate,
/// partition) seconds.
fn set_up(
    spec: &'static Spec,
    seed: u64,
    scope: Option<SpanScope<'_>>,
) -> Result<(Inputs, (f64, f64)), String> {
    let (data, generate_s) = timed(scope, "data.generate", || workload::generate(spec, seed));
    let data = data?;
    let (shards, partition_s) = timed(scope, "data.partition", || {
        workload::partition(spec, &data, seed)
    });
    Ok(((data, shards?), (generate_s, partition_s)))
}

fn measure(spec: &'static Spec, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let tracer = Tracer::new();
    let setup_scope = traced.then(|| SpanScope::root(&tracer, "setup", 0));
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous repeat's data before generating the next.
        drop(inputs.take());
        let (built, timing) = set_up(spec, seed, setup_scope)?;
        setups.push(timing);
        inputs = Some(built);
    }
    let (data, shards) = inputs.expect("at least one set-up");
    let prep = Prepared::new(spec, data, shards, seed, setup_scope)?;
    if let Some(s) = setup_scope {
        tracer.close(s.parent);
    }
    // Whether the peak-RSS mark can be reset; `run_jobs` resets it
    // before each job.
    let rss_reset = reset_peak_rss();
    // A traced run splits its time between untraced and traced jobs.
    let budget = Duration::from_secs_f64(if traced { seconds / 2.0 } else { seconds });
    let pass = run_jobs(&prep, budget, None, 1, Some(&mut setups));
    let (failed, peak_rss) = (pass.failed, pass.peak_rss_mb);
    let jobs: Vec<Job> = pass.jobs.into_iter().map(|(_, j)| j).collect();
    let (outcome, job_s) = if traced {
        per_layer(&prep, &setups, &jobs, failed, budget, tracer, seed)
    } else {
        end_to_end(&prep, &setups, &jobs, failed, peak_rss)
    };
    print_summary(
        spec,
        seed,
        &job_s,
        outcome.attempted,
        outcome.failed,
        rss_reset,
    );
    Ok(outcome)
}

/// The end-to-end metrics of the untraced jobs, and their `job_s`.
fn end_to_end(
    prep: &Prepared,
    setups: &[(f64, f64)],
    jobs: &[Job],
    failed: usize,
    peak_rss: f64,
) -> (Outcome, Vec<f64>) {
    let attempted = jobs.len() + failed;
    let job_s: Vec<f64> = jobs.iter().map(|j| j.job_s).collect();
    let data_s: Vec<f64> = setups.iter().map(|(g, p)| g + p).collect();
    let connect_s: Vec<f64> = jobs.iter().filter_map(|j| j.connect_s).collect();
    let connect = if connect_s.is_empty() {
        0.0
    } else {
        median(&connect_s)
    };
    let mut metrics = Vec::new();
    if let Some(first) = jobs.first() {
        // Exact for a seed: every job reproduces the reference bits.
        let per_run = |f: &dyn Fn(&workload::RunResult) -> f64| {
            mean(&first.runs.iter().map(f).collect::<Vec<_>>())
        };
        let raw = prep.raw_bits();
        let cpu_s: Vec<f64> = jobs.iter().map(|j| j.cpu_s).collect();
        metrics = vec![
            ("job_s".to_string(), median(&job_s), "s"),
            ("setup_s".into(), median(&data_s) + connect, "s"),
            ("cpu_s".into(), median(&cpu_s), "s"),
            ("peak_rss_mb".into(), peak_rss, "MB"),
            (
                "comm_ratio".into(),
                per_run(&|r| r.out.uplink_bits as f64 / raw),
                "ratio",
            ),
            (
                "downlink_ratio".into(),
                per_run(&|r| r.out.downlink_bits as f64 / raw),
                "ratio",
            ),
            ("cost_ratio".into(), per_run(&|r| r.cost_ratio), "ratio"),
        ];
    }
    metrics.push((
        "error_rate".into(),
        failed as f64 / attempted as f64,
        "ratio",
    ));
    let outcome = Outcome {
        attempted,
        failed,
        metrics,
    };
    (outcome, job_s)
}

/// Runs the traced jobs after the untraced `jobs`, checks that both give
/// the same bits, writes the spans out, and returns the per-layer
/// metrics with the traced `job_s`.
fn per_layer(
    prep: &Prepared,
    setups: &[(f64, f64)],
    jobs: &[Job],
    failed: usize,
    budget: Duration,
    tracer: Tracer,
    seed: u64,
) -> (Outcome, Vec<f64>) {
    let first_traced = 1 + (jobs.len() + failed) as u32;
    let traced = run_jobs(prep, budget, Some(&tracer), first_traced, None);
    let (traced_jobs, traced_failed) = (traced.jobs, traced.failed);
    let attempted = jobs.len() + failed + traced_jobs.len() + traced_failed;
    let mut failed = failed + traced_failed;
    // The decorators must be transparent: every traced job reproduces
    // an untraced one bit for bit.
    if let Some(plain) = jobs.first() {
        for (id, job) in &traced_jobs {
            if let Err(e) = workload::same_results(plain, job) {
                eprintln!(
                    "{}: traced job {id} differs from untraced: {e}",
                    prep.spec.name
                );
                failed += 1;
            }
        }
    }
    let spans = tracer.into_spans();
    let mut per_job: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (id, job) in &traced_jobs {
        for (name, v) in layer_metrics(&spans, *id, job) {
            per_job.entry(name).or_default().push(v);
        }
    }
    // Means, so that the layers of a job add up as they do per job.
    let mut layers: BTreeMap<String, f64> =
        per_job.iter().map(|(k, v)| (k.clone(), mean(v))).collect();
    let generate_s: Vec<f64> = setups.iter().map(|s| s.0).collect();
    let partition_s: Vec<f64> = setups.iter().map(|s| s.1).collect();
    layers.insert("data.generate_s".into(), median(&generate_s));
    layers.insert("data.partition_s".into(), median(&partition_s));
    layers.insert("evaluation.reference_s".into(), prep.reference_s);
    let job_s: Vec<f64> = jobs.iter().map(|j| j.job_s).collect();
    let traced_s: Vec<f64> = traced_jobs.iter().map(|(_, j)| j.job_s).collect();
    if !traced_s.is_empty() && !job_s.is_empty() {
        layers.insert("trace.job_s".into(), median(&traced_s));
        layers.insert(
            "trace.overhead_s".into(),
            median(&traced_s) - median(&job_s),
        );
    }
    write_trace_file(prep.spec, seed, &layers, &spans);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            (
                name.to_string(),
                layers.get(name).copied().unwrap_or(0.0),
                unit,
            )
        })
        .collect();
    let outcome = Outcome {
        attempted,
        failed,
        metrics,
    };
    (outcome, traced_s)
}

/// Per-layer figures of one traced job, from its spans.
fn layer_metrics(spans: &[Span], job: u32, rec: &Job) -> BTreeMap<String, f64> {
    let mine: Vec<&Span> = spans.iter().filter(|s| s.job == job).collect();
    let named = |name: &'static str| mine.iter().copied().filter(move |s| s.name == name);
    let wall = |name: &'static str| sum(named(name).map(Span::wall));
    let mut m = BTreeMap::new();
    for name in [
        "net.driver_send",
        "net.driver_recv_wait",
        "net.source_send",
        "net.source_recv_wait",
    ] {
        m.insert(format!("{name}_s"), wall(name));
    }
    m.insert("net.connect_s".into(), rec.connect_s.unwrap_or(0.0));
    if let Some(run) = named("driver.run").next() {
        let transport: Vec<&Span> = named("net.driver_send")
            .chain(named("net.driver_recv_wait"))
            .collect();
        let inside = sum(transport.iter().map(|s| s.wall()));
        let inside_cpu = sum(transport.iter().map(|s| s.cpu()));
        m.insert("driver.self_s".into(), run.wall() - inside);
        m.insert("driver.self_cpu_s".into(), run.cpu() - inside_cpu);
        m.insert("trace.coverage".into(), run.wall() / rec.job_s);
    }
    // Executor spans, one per source per round: the round's wall time is
    // its slowest source, its CPU time the process clock across it.
    let mut rounds: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in mine.iter().filter(|s| s.name.starts_with("executor.")) {
        rounds.entry(s.round.unwrap_or(0)).or_default().push(s);
    }
    let (mut busy, mut thread_cpu) = (0.0, 0.0);
    for round in rounds.values() {
        let w = round.iter().map(|s| s.wall()).fold(0.0, f64::max);
        let first = round
            .iter()
            .map(|s| s.start.cpu)
            .fold(f64::INFINITY, f64::min);
        let last = round.iter().map(|s| s.end.cpu).fold(0.0, f64::max);
        *m.entry(format!("{}.wall_s", round[0].name)).or_insert(0.0) += w;
        *m.entry(format!("{}.cpu_s", round[0].name)).or_insert(0.0) += last - first;
        busy += w;
        thread_cpu += sum(round.iter().map(|s| s.thread_cpu()));
    }
    if !rounds.is_empty() {
        m.insert("executor.busy_s_max".into(), busy);
        m.insert("executor.thread_cpu_s".into(), thread_cpu);
        m.insert("net.rounds".into(), rounds.len() as f64);
    }
    let engine: Vec<&Span> = mine
        .iter()
        .copied()
        .filter(|s| s.name.starts_with("engine."))
        .collect();
    for s in &engine {
        m.insert(format!("{}.wall_s", s.name), s.wall());
    }
    if !engine.is_empty() {
        m.insert(
            "trace.coverage".into(),
            sum(engine.iter().map(|s| s.wall())) / rec.job_s,
        );
    }
    let total = |f: &dyn Fn(&workload::RunResult) -> f64| sum(rec.runs.iter().map(f));
    m.insert(
        "net.uplink_bits".into(),
        total(&|r| r.stats.total_uplink_bits() as f64),
    );
    m.insert(
        "net.downlink_bits".into(),
        total(&|r| r.stats.total_downlink_bits() as f64),
    );
    m.insert(
        "net.uplink_messages".into(),
        total(&|r| r.stats.total_uplink_messages() as f64),
    );
    m.insert("evaluation.cost_s".into(), total(&|r| r.cost_s));
    m.insert(
        "program.source_seconds".into(),
        total(&|r| r.out.source_seconds),
    );
    m.insert(
        "program.server_seconds".into(),
        total(&|r| r.out.server_seconds),
    );
    if let Some(c) = &rec.cache {
        m.insert("cache.hits".into(), c.hits as f64);
        m.insert("cache.misses".into(), c.misses as f64);
        m.insert("cache.hit_rate".into(), c.hit_rate);
        m.insert("cache.held_bytes".into(), c.held_bytes as f64);
    }
    m
}

fn write_trace_file(spec: &Spec, seed: u64, layers: &BTreeMap<String, f64>, spans: &[Span]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut out = format!(
        "{{\"workload\": {}, \"host\": {}, \"layers\": {{",
        json_str(spec.name),
        host_record(seed)
    );
    let fields: Vec<String> = layers
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
        .collect();
    out.push_str(&fields.join(", "));
    out.push_str("}, \"spans\": [\n");
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            format!(
                "{{\"name\": {}, \"job\": {}, \"parent\": {}, \"source\": {}, \"round\": {}, \
                 \"start\": {}, \"end\": {}, \"cpu_start\": {}, \"cpu_end\": {}, \"thread_cpu\": {}}}",
                json_str(&s.name),
                s.job,
                opt(s.parent.map(|p| p as u64)),
                opt(s.source.map(|p| p as u64)),
                opt(s.round.map(u64::from)),
                json_num(s.start.wall),
                json_num(s.end.wall),
                json_num(s.start.cpu),
                json_num(s.end.cpu),
                json_num(s.thread_cpu()),
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n]}\n");
    let path = dir.join(format!("trace-{}-seed{seed}.json", spec.name));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, out)) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

fn print_summary(
    spec: &Spec,
    seed: u64,
    job_s: &[f64],
    attempted: usize,
    failed: usize,
    rss_reset: bool,
) {
    let path = match spec.backend {
        Backend::Channel => "channel backend",
        Backend::Tcp => "loopback TCP",
        Backend::Sweep => "sequential simulation + stage cache",
    };
    println!(
        "# {} (seed {seed}, {path}, {} source(s)): {attempted} jobs attempted, {failed} failed, closed loop of 1 client",
        spec.name, spec.sources
    );
    if !job_s.is_empty() {
        let max = job_s.iter().copied().fold(f64::MIN, f64::max);
        // The highest percentile with at least ten samples above it.
        let tail = if job_s.len() >= 20 {
            format!("p{}", 100 - 1000 / job_s.len())
        } else {
            "no tail percentile (fewer than 20 jobs)".into()
        };
        println!(
            "#   job_s over {} jobs: median {:.4} s, max {max:.4} s; {tail}; all: {:.3?}",
            job_s.len(),
            median(job_s),
            job_s
        );
    }
    if !rss_reset {
        println!("#   peak_rss_mb: /proc/self/clear_refs unavailable, peak covers set-up too");
    }
}

fn print_metrics(metrics: &[(String, f64, &'static str)]) {
    for (name, value, unit) in metrics {
        println!("#   {name:<28} {value:>16.6} {unit}");
    }
}

fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, f64, &'static str)],
) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

/// Metrics that can read 0 on some workload (nothing is sent downlink by
/// a single source; nothing fails at a healthy commit) and so cannot be
/// compared as a share of their median: printed, not in the JSON.
const PRINT_ONLY: &[&str] = &["downlink_ratio", "error_rate"];

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = host_record(args.seed);
    let specs: Vec<&'static Spec> = match workload::find(&args.workload) {
        Some(spec) => vec![spec],
        None => WORKLOADS.iter().collect(),
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut all = Vec::new();
    for spec in &specs {
        let outcome = match measure(spec, args.seed, args.seconds, args.trace) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", spec.name);
                return ExitCode::FAILURE;
            }
        };
        print_metrics(&outcome.metrics);
        attempted += outcome.attempted;
        failed += outcome.failed;
        for (name, value, unit) in outcome.metrics {
            if args.trace || !PRINT_ONLY.contains(&name.as_str()) {
                let name = if specs.len() > 1 {
                    format!("{}.{name}", spec.name)
                } else {
                    name
                };
                all.push((name, value, unit));
            }
        }
    }
    println!("# host {host}");
    println!("{}", result_json(failed == 0, attempted, failed, &all));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
