//! The workloads: how each one builds its inputs from the seed, the
//! reference its jobs are checked against, and how one job runs.
//!
//! Every job is a closed loop of one client: the next job starts only
//! after the previous one returned its centers.

use crate::trace::{process_cpu_s, timed, SpanScope, TracedEndpoint, TracedTransport};
use edge_kmeans::core::distributed::{Bklw, JlBklw};
use edge_kmeans::core::evaluation;
use edge_kmeans::core::pipelines::{Fss, FssJl, JlFss, JlFssJl, NoReduction};
use edge_kmeans::core::stage::with_default_qt;
use edge_kmeans::core::{
    run_driver, RunOutput, SourceExecutor, SourceRunReport, Stage, StageCache, StagePipeline,
    SummaryParams,
};
use edge_kmeans::data::mnist_like::MnistLike;
use edge_kmeans::data::normalize::normalize_paper;
use edge_kmeans::data::partition::partition_uniform;
use edge_kmeans::data::synth::GaussianMixture;
use edge_kmeans::linalg::Matrix;
use edge_kmeans::net::protocol::channel_pairs;
use edge_kmeans::net::{
    tcp, CommandTransport, EventServerBinding, EventTcpSource, Network, NetworkStats, RunDigest,
    SourceEndpoint,
};
use std::time::{Duration, Instant};

pub enum Dataset {
    /// `MnistLike` digit images on a `side × side` pixel grid.
    MnistLike { side: usize },
    /// A spherical Gaussian mixture with one component per center.
    Mixture { d: usize, separation: f64 },
}

/// How a job reaches the sources.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `run_driver` over `channel_pairs`, one executor thread per source.
    Channel,
    /// `run_driver` over loopback TCP (epoll reactor), one executor
    /// thread per source, a fresh connection per job.
    Tcp,
    /// The sequential in-process simulation `ekm sweep` uses, every
    /// composition through one fresh `StageCache` per job.
    Sweep,
}

pub struct Spec {
    pub name: &'static str,
    pub dataset: Dataset,
    pub n: usize,
    pub k: usize,
    pub sources: usize,
    pub backend: Backend,
    /// Named pipelines (`jl-bklw`) or stage lists (`jl,fss,qt:8`), run
    /// in this order by every job.
    pub compositions: &'static [&'static str],
}

/// The seven pipelines `ekm sweep` runs, then four compositions that
/// share their `jl,fss` and `jl` prefixes — the cache's hits.
const SWEEP: &[&str] = &[
    "nr",
    "fss",
    "jl-fss",
    "fss-jl",
    "jl-fss-jl",
    "bklw",
    "jl-bklw",
    "jl,fss,qt:4",
    "jl,fss,qt:8",
    "jl,fss,qt:12",
    "jl,stream,qt",
];

// Why each workload exists: alg3-single is source-side DR and CR with
// no wire to speak of; alg4-tcp is the only one with protocol rounds
// (disPCA/disSS on two parallel sources — two, because more sources than
// cores measure the scheduler); raw-tcp moves 819 Mbit over loopback and
// solves on the full data; sweep-cache is the only one the stage cache
// serves.
//
// raw-tcp clusters with k=2: its job is dominated by the full-data Lloyd
// solve, and at k=4 a restart from a poor k-means++ seeding runs 50-100
// iterations instead of 5-8, so on about one seed in four the job took
// 3-7 s instead of 2.3-2.7 s. At k=2 every restart takes 3-6 iterations.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "alg3-single",
        dataset: Dataset::MnistLike { side: 28 },
        n: 20_000,
        k: 2,
        sources: 1,
        backend: Backend::Channel,
        compositions: &["jl,fss,jl,qt:8"],
    },
    Spec {
        name: "alg4-tcp",
        dataset: Dataset::Mixture {
            d: 128,
            separation: 4.0,
        },
        n: 200_000,
        k: 8,
        sources: 2,
        backend: Backend::Tcp,
        compositions: &["jl-bklw"],
    },
    Spec {
        name: "raw-tcp",
        dataset: Dataset::Mixture {
            d: 128,
            separation: 4.0,
        },
        n: 100_000,
        k: 2,
        sources: 1,
        backend: Backend::Tcp,
        compositions: &["nr"],
    },
    Spec {
        name: "sweep-cache",
        dataset: Dataset::MnistLike { side: 14 },
        n: 20_000,
        k: 2,
        sources: 2,
        backend: Backend::Sweep,
        compositions: SWEEP,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A composition as a metric-name fragment: `jl,fss,qt:4` → `jl-fss-qt4`.
fn composition_label(token: &str) -> String {
    token.replace(',', "-").replace(':', "")
}

/// Generates and normalizes the dataset the CLI would for the same flags.
pub fn generate(spec: &Spec, seed: u64) -> Result<Matrix, String> {
    let raw = match spec.dataset {
        Dataset::MnistLike { side } => MnistLike::new(spec.n, side).with_seed(seed).generate(),
        Dataset::Mixture { d, separation } => GaussianMixture::new(spec.n, d, spec.k)
            .with_separation(separation)
            .with_seed(seed)
            .generate(),
    }
    .map_err(|e| e.to_string())?;
    Ok(normalize_paper(&raw.points).0)
}

/// The per-source shards of a multi-source workload (none for one source).
pub fn partition(spec: &Spec, data: &Matrix, seed: u64) -> Result<Vec<Matrix>, String> {
    if spec.sources > 1 {
        partition_uniform(data, spec.sources, seed).map_err(|e| e.to_string())
    } else {
        Ok(Vec::new())
    }
}

fn resolve(token: &str, params: &SummaryParams) -> Result<StagePipeline, String> {
    let p = params.clone();
    Ok(match token {
        "nr" => NoReduction::new(p).into_stage_pipeline(),
        "fss" => Fss::new(p).into_stage_pipeline(),
        "jl-fss" => JlFss::new(p).into_stage_pipeline(),
        "fss-jl" => FssJl::new(p).into_stage_pipeline(),
        "jl-fss-jl" => JlFssJl::new(p).into_stage_pipeline(),
        "bklw" => Bklw::new(p).into_stage_pipeline(),
        "jl-bklw" => JlBklw::new(p).into_stage_pipeline(),
        list => {
            let stages = Stage::parse_list(list).map_err(|e| e.to_string())?;
            StagePipeline::new(with_default_qt(stages, params), p)
        }
    })
}

/// What a correct job must reproduce, from the in-process simulation.
pub struct Expected {
    pub centers_hash: u64,
    pub stats: NetworkStats,
    pub summary_points: usize,
    pub cost_ratio: f64,
}

/// One workload, set up and with its yardsticks computed.
pub struct Prepared {
    pub spec: &'static Spec,
    pub data: Matrix,
    /// The shards the sweep reads; empty on the protocol paths, whose
    /// executors own a fresh partition each job.
    pub shards: Vec<Matrix>,
    pub pipes: Vec<(&'static str, StagePipeline)>,
    pub expected: Vec<Expected>,
    /// Cost of `evaluation::reference` (the X* proxy) on the full data.
    pub reference_cost: f64,
    pub reference_s: f64,
    pub seed: u64,
    fingerprint: u64,
}

impl Prepared {
    /// Builds the pipelines, solves the X* reference the way `ekm run`
    /// does, and runs every composition once through the simulation.
    pub fn new(
        spec: &'static Spec,
        data: Matrix,
        shards: Vec<Matrix>,
        seed: u64,
        scope: Option<SpanScope<'_>>,
    ) -> Result<Prepared, String> {
        let (n, d) = data.shape();
        let params = SummaryParams::practical(spec.k, n, d).with_seed(seed);
        let pipes = spec
            .compositions
            .iter()
            .map(|&t| resolve(t, &params).map(|p| (t, p)))
            .collect::<Result<Vec<_>, _>>()?;
        let (reference, reference_s) = timed(scope, "evaluation.reference", || {
            evaluation::reference(&data, spec.k, 5, 1)
        });
        let reference = reference.map_err(|e| e.to_string())?;
        let mut expected = Vec::with_capacity(pipes.len());
        for (_, pipe) in &pipes {
            let mut net = Network::new(source_count(spec, pipe));
            let out = if pipe.is_distributed() {
                pipe.run_shards(&shards, &mut net)
            } else {
                pipe.run(&data, &mut net)
            }
            .map_err(|e| format!("reference simulation: {e}"))?;
            let cost_ratio = evaluation::normalized_cost(&data, &out.centers, reference.cost)
                .map_err(|e| e.to_string())?;
            expected.push(Expected {
                centers_hash: RunDigest::new(net.stats(), &out.centers).centers_hash,
                stats: net.stats().clone(),
                summary_points: out.summary_points,
                cost_ratio,
            });
        }
        // Hold no copy of the data beyond what `ekm run` holds: the data
        // and, during a job, the shards moved into the executors.
        let shards = if spec.backend == Backend::Sweep {
            shards
        } else {
            Vec::new()
        };
        Ok(Prepared {
            spec,
            data,
            shards,
            pipes,
            expected,
            reference_cost: reference.cost,
            reference_s,
            seed,
            fingerprint: tcp::fingerprint(&format!("perfbench;{};seed={seed}", spec.name)),
        })
    }

    /// Raw dataset bits, the denominator of the communication ratios.
    pub fn raw_bits(&self) -> f64 {
        let (n, d) = self.data.shape();
        (n * d) as f64 * 64.0
    }

    /// Each source's shard for executors that own it, partitioned again
    /// from the data (the same seed gives the same shards).
    fn shards_for(&self, pipe: &StagePipeline) -> Result<Vec<Matrix>, String> {
        if pipe.is_distributed() {
            partition(self.spec, &self.data, self.seed)
        } else {
            Ok(vec![self.data.clone()])
        }
    }
}

fn source_count(spec: &Spec, pipe: &StagePipeline) -> usize {
    if pipe.is_distributed() {
        spec.sources
    } else {
        1
    }
}

/// One composition's result inside a job.
pub struct RunResult {
    pub out: RunOutput,
    pub stats: NetworkStats,
    /// Every executor's own report (empty on the simulation path).
    pub reports: Vec<SourceRunReport>,
    pub cost_ratio: f64,
    pub cost_s: f64,
}

pub struct CacheCounts {
    pub hits: u64,
    pub misses: u64,
    pub hit_rate: f64,
    pub held_bytes: usize,
}

pub struct Job {
    /// From the driver's first command until the centers are returned
    /// (the whole sweep on the simulation path).
    pub job_s: f64,
    /// Process CPU over the same interval, every thread included.
    pub cpu_s: f64,
    /// Bind, connect and every handshake before the job (TCP only).
    pub connect_s: Option<f64>,
    pub runs: Vec<RunResult>,
    pub cache: Option<CacheCounts>,
}

/// Runs one job. With a scope (the job's root span), the transport and
/// every endpoint are wrapped in the timing decorators.
pub fn run_job(prep: &Prepared, scope: Option<SpanScope<'_>>) -> Result<Job, String> {
    if prep.spec.backend == Backend::Sweep {
        return sweep_job(prep, scope);
    }
    let (_, pipe) = &prep.pipes[0];
    let shards = prep.shards_for(pipe)?;
    let (driven, connect_s) = if prep.spec.backend == Backend::Channel {
        (channel_job(pipe, shards, scope)?, None)
    } else {
        let (driven, connect_s) = tcp_job(pipe, shards, prep.fingerprint, scope)?;
        (driven, Some(connect_s))
    };
    let run = evaluate(prep, driven.out, driven.stats, driven.reports, scope)?;
    Ok(Job {
        job_s: driven.job_s,
        cpu_s: driven.cpu_s,
        connect_s,
        runs: vec![run],
        cache: None,
    })
}

/// Scores a composition's centers against the X* reference, outside the
/// job's timed interval.
fn evaluate(
    prep: &Prepared,
    out: RunOutput,
    stats: NetworkStats,
    reports: Vec<SourceRunReport>,
    scope: Option<SpanScope<'_>>,
) -> Result<RunResult, String> {
    let (cost_ratio, cost_s) = timed(scope, "evaluation.cost", || {
        evaluation::normalized_cost(&prep.data, &out.centers, prep.reference_cost)
    });
    Ok(RunResult {
        cost_ratio: cost_ratio.map_err(|e| e.to_string())?,
        cost_s,
        out,
        stats,
        reports,
    })
}

/// A protocol job's result and the wall and process-CPU seconds of its
/// `run_driver` call.
struct Driven {
    out: RunOutput,
    stats: NetworkStats,
    reports: Vec<SourceRunReport>,
    job_s: f64,
    cpu_s: f64,
}

fn serve<E: SourceEndpoint>(
    mut executor: SourceExecutor<'_>,
    mut endpoint: E,
    source: usize,
    stages: &[Stage],
    scope: Option<SpanScope<'_>>,
) -> Result<SourceRunReport, String> {
    match scope {
        Some(s) => executor.serve(&mut TracedEndpoint::new(endpoint, s, source, stages)),
        None => executor.serve(&mut endpoint),
    }
    .map_err(|e| format!("source {source}: {e}"))
}

/// Runs the driver, then joins the executors.
fn drive<T: CommandTransport>(
    pipe: &StagePipeline,
    net: T,
    scope: Option<SpanScope<'_>>,
    handles: Vec<std::thread::ScopedJoinHandle<'_, Result<SourceRunReport, String>>>,
) -> Result<Driven, String> {
    let (cpu0, t0) = (process_cpu_s(), Instant::now());
    let (out, stats) = match scope {
        Some(s) => {
            let span = s.open("driver.run");
            let mut traced = TracedTransport::new(net, s.under(span));
            let out = run_driver(pipe, &mut traced);
            s.tracer.close(span);
            (out, traced.stats().clone())
        }
        None => {
            let mut net = net;
            let out = run_driver(pipe, &mut net);
            (out, net.stats().clone())
        }
    };
    let job_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let reports = handles
        .into_iter()
        .map(|h| {
            h.join()
                .map_err(|_| "executor thread panicked".to_string())?
        })
        .collect::<Result<Vec<_>, _>>();
    Ok(Driven {
        out: out.map_err(|e| format!("driver: {e}"))?,
        stats,
        reports: reports?,
        job_s,
        cpu_s,
    })
}

/// One executor per shard, built before the clock starts.
fn executors(pipe: &StagePipeline, shards: Vec<Matrix>) -> Vec<SourceExecutor<'_>> {
    let m = shards.len();
    shards
        .into_iter()
        .enumerate()
        .map(|(i, shard)| SourceExecutor::new(pipe.stages(), pipe.params(), i, m, shard))
        .collect()
}

fn channel_job(
    pipe: &StagePipeline,
    shards: Vec<Matrix>,
    scope: Option<SpanScope<'_>>,
) -> Result<Driven, String> {
    let (hub, endpoints) = channel_pairs(shards.len());
    let executors = executors(pipe, shards);
    std::thread::scope(|threads| {
        let handles = executors
            .into_iter()
            .zip(endpoints)
            .enumerate()
            .map(|(i, (ex, ep))| threads.spawn(move || serve(ex, ep, i, pipe.stages(), scope)))
            .collect();
        drive(pipe, hub, scope, handles)
    })
}

/// A loopback TCP job on a fresh listener; also returns the seconds from
/// bind until every source has connected and handshaken.
fn tcp_job(
    pipe: &StagePipeline,
    shards: Vec<Matrix>,
    fingerprint: u64,
    scope: Option<SpanScope<'_>>,
) -> Result<(Driven, f64), String> {
    let m = shards.len();
    let executors = executors(pipe, shards);
    let connect = scope.map(|s| s.open("net.connect"));
    let t0 = Instant::now();
    let binding = EventServerBinding::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = binding.local_addr().map_err(|e| e.to_string())?;
    std::thread::scope(|threads| {
        let handles = executors
            .into_iter()
            .enumerate()
            .map(|(i, ex)| {
                threads.spawn(move || {
                    let timeout = Duration::from_secs(30);
                    let ep = EventTcpSource::connect(addr, i, m, fingerprint, timeout)
                        .map_err(|e| format!("source {i} connect: {e}"))?;
                    serve(ex, ep, i, pipe.stages(), scope)
                })
            })
            .collect();
        let server = binding.accept(m, fingerprint).map_err(|e| e.to_string())?;
        let connect_s = t0.elapsed().as_secs_f64();
        if let (Some(s), Some(span)) = (scope, connect) {
            s.tracer.close(span);
        }
        Ok((drive(pipe, server, scope, handles)?, connect_s))
    })
}

fn sweep_job(prep: &Prepared, scope: Option<SpanScope<'_>>) -> Result<Job, String> {
    let mut cache = StageCache::new();
    let mut served = Vec::with_capacity(prep.pipes.len());
    let (cpu0, t0) = (process_cpu_s(), Instant::now());
    for (token, pipe) in &prep.pipes {
        let mut net = Network::new(source_count(prep.spec, pipe));
        let name = format!("engine.{}", composition_label(token));
        let (out, _) = timed(scope, &name, || {
            if pipe.is_distributed() {
                pipe.run_shards_cached(&prep.shards, &mut net, &mut cache)
            } else {
                pipe.run_cached(&prep.data, &mut net, &mut cache)
            }
        });
        served.push((
            out.map_err(|e| format!("{token}: {e}"))?,
            net.stats().clone(),
        ));
    }
    let job_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let runs = served
        .into_iter()
        .map(|(out, stats)| evaluate(prep, out, stats, Vec::new(), scope))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Job {
        job_s,
        cpu_s,
        connect_s: None,
        runs,
        cache: Some(CacheCounts {
            hits: cache.hits(),
            misses: cache.misses(),
            hit_rate: cache.hit_rate(),
            held_bytes: cache.held_bytes(),
        }),
    })
}

/// The correctness gate: every composition of the job must reproduce the
/// simulation's centers bit for bit, its per-source uplink and downlink
/// ledgers and summary size, and its cost ratio; every executor's own
/// report must agree with the driver's ledgers and announced digest.
pub fn check(prep: &Prepared, job: &Job) -> Result<(), String> {
    if job.runs.len() != prep.expected.len() {
        return Err(format!(
            "{} results for {} compositions",
            job.runs.len(),
            prep.expected.len()
        ));
    }
    for ((token, _), (run, exp)) in prep.pipes.iter().zip(job.runs.iter().zip(&prep.expected)) {
        check_run(run, exp).map_err(|e| format!("{token}: {e}"))?;
    }
    Ok(())
}

fn check_run(run: &RunResult, exp: &Expected) -> Result<(), String> {
    let out = &run.out;
    if out.centers.as_slice().iter().any(|v| v.is_nan()) {
        return Err("NaN in the centers".into());
    }
    if out.degraded.is_some() || out.recovered.is_some() {
        return Err("the run degraded or recovered without a fault".into());
    }
    let hash = RunDigest::new(&run.stats, &out.centers).centers_hash;
    if hash != exp.centers_hash {
        return Err(format!(
            "centers hash {hash:#018x}, reference {:#018x}",
            exp.centers_hash
        ));
    }
    let m = exp.stats.sources();
    if run.stats.sources() != m {
        return Err(format!("{} sources, reference {m}", run.stats.sources()));
    }
    for i in 0..m {
        let (up, down) = (run.stats.uplink_bits(i), run.stats.downlink_bits(i));
        let (rup, rdown) = (exp.stats.uplink_bits(i), exp.stats.downlink_bits(i));
        if (up, down) != (rup, rdown) {
            return Err(format!(
                "source {i} ledger up/down {up}/{down}, reference {rup}/{rdown}"
            ));
        }
    }
    if out.summary_points != exp.summary_points {
        return Err(format!(
            "{} summary points, reference {}",
            out.summary_points, exp.summary_points
        ));
    }
    if run.cost_ratio.to_bits() != exp.cost_ratio.to_bits() {
        return Err(format!(
            "cost ratio {}, reference {}",
            run.cost_ratio, exp.cost_ratio
        ));
    }
    if !run.reports.is_empty() && run.reports.len() != m {
        return Err(format!(
            "{} executor reports for {m} sources",
            run.reports.len()
        ));
    }
    for (i, r) in run.reports.iter().enumerate() {
        let own = (r.uplink_bits, r.downlink_bits);
        if own != (run.stats.uplink_bits(i), run.stats.downlink_bits(i)) {
            return Err(format!(
                "executor {i} report {own:?} disagrees with the driver"
            ));
        }
        let announced = (r.centers_hash, r.server_uplink_bits, r.server_downlink_bits);
        let digest = (
            hash,
            run.stats.total_uplink_bits(),
            run.stats.total_downlink_bits(),
        );
        if announced != digest {
            return Err(format!(
                "executor {i} was announced {announced:?}, driver holds {digest:?}"
            ));
        }
    }
    Ok(())
}

/// Bit-identity of two jobs of the same workload: centers, the full
/// `NetworkStats`, and every executor report. Used to show that the
/// timing decorators are transparent.
pub fn same_results(a: &Job, b: &Job) -> Result<(), String> {
    if a.runs.len() != b.runs.len() {
        return Err("different composition counts".into());
    }
    for (i, (x, y)) in a.runs.iter().zip(&b.runs).enumerate() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        if x.out.centers.shape() != y.out.centers.shape()
            || bits(&x.out.centers) != bits(&y.out.centers)
        {
            return Err(format!("composition {i}: centers differ"));
        }
        if x.stats != y.stats {
            return Err(format!("composition {i}: NetworkStats differ"));
        }
        let report = |r: &SourceRunReport| {
            (
                r.uplink_bits,
                r.downlink_bits,
                r.uplink_kinds.clone(),
                r.downlink_kinds.clone(),
                r.centers_hash,
                r.server_uplink_bits,
                r.server_downlink_bits,
            )
        };
        let rx: Vec<_> = x.reports.iter().map(report).collect();
        let ry: Vec<_> = y.reports.iter().map(report).collect();
        if rx != ry {
            return Err(format!("composition {i}: executor reports differ"));
        }
    }
    Ok(())
}
