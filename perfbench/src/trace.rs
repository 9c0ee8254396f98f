//! The traced pass: an in-memory span recorder, the CPU clocks it reads,
//! and the two timing decorators it wraps around the protocol's seams —
//! [`TracedTransport`] on the driver side and [`TracedEndpoint`] on each
//! source side. Both forward every call unchanged, so a decorated run is
//! bit-identical to an undecorated one (checked on every traced job).

use edge_kmeans::core::Stage;
use edge_kmeans::net::protocol::{Command, DeadlinePolicy, EncodedCommand, Response};
use edge_kmeans::net::{CommandTransport, NetError, NetworkStats, SourceEndpoint};
use std::ffi::{c_int, c_long};
use std::sync::Mutex;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn read_clock(clock: c_int) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // every 64-bit Linux target) and both clock ids are fixed constants
    // the kernel always supports, so the call only writes into `ts`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds consumed by every thread of this process so far. The
/// executors' linear algebra fans out onto scoped worker threads while
/// the calling thread waits, so only this clock sees that work.
pub fn process_cpu_s() -> f64 {
    read_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds of the calling thread alone — recorded beside the process
/// clock only to show how much a per-thread clock misses.
pub fn thread_cpu_s() -> f64 {
    read_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// The clocks read at one span boundary.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    /// Wall seconds since the tracer's epoch.
    pub wall: f64,
    /// Process CPU seconds.
    pub cpu: f64,
    /// CPU seconds of the thread that took the stamp.
    pub thread_cpu: f64,
}

/// One recorded interval. Spans of one job share `job`; `parent` indexes
/// the span that caused this one.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub job: u32,
    pub parent: Option<usize>,
    pub source: Option<usize>,
    pub round: Option<u32>,
    pub start: Stamp,
    pub end: Stamp,
}

impl Span {
    pub fn wall(&self) -> f64 {
        self.end.wall - self.start.wall
    }

    pub fn cpu(&self) -> f64 {
        self.end.cpu - self.start.cpu
    }

    pub fn thread_cpu(&self) -> f64 {
        self.end.thread_cpu - self.start.thread_cpu
    }
}

/// Spans stay in memory until the run ends and [`Tracer::into_spans`]
/// hands them over for aggregation and the trace file.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now(&self) -> Stamp {
        Stamp {
            wall: self.epoch.elapsed().as_secs_f64(),
            cpu: process_cpu_s(),
            thread_cpu: thread_cpu_s(),
        }
    }

    /// Records a finished span and returns its index.
    pub fn record(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("a tracing thread panicked");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span whose end is filled in by [`Tracer::close`], so that
    /// children recorded meanwhile can name it as their parent.
    pub fn open(&self, name: &str, job: u32, parent: Option<usize>) -> usize {
        let now = self.now();
        self.record(Span {
            name: name.to_string(),
            job,
            parent,
            source: None,
            round: None,
            start: now,
            end: now,
        })
    }

    pub fn close(&self, index: usize) {
        let now = self.now();
        self.spans.lock().expect("a tracing thread panicked")[index].end = now;
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("a tracing thread panicked")
    }
}

/// Where new spans attach: a job and the span that caused them.
#[derive(Debug, Clone, Copy)]
pub struct SpanScope<'t> {
    pub tracer: &'t Tracer,
    pub job: u32,
    pub parent: usize,
}

impl<'t> SpanScope<'t> {
    /// Opens the root span of job `job`; spans under it use the scope.
    pub fn root(tracer: &'t Tracer, name: &str, job: u32) -> SpanScope<'t> {
        let parent = tracer.open(name, job, None);
        SpanScope {
            tracer,
            job,
            parent,
        }
    }

    /// The same job, attaching under `span`.
    pub fn under(&self, span: usize) -> SpanScope<'t> {
        SpanScope {
            parent: span,
            ..*self
        }
    }

    pub fn open(&self, name: &str) -> usize {
        self.tracer.open(name, self.job, Some(self.parent))
    }

    fn span(&self, name: &str, source: usize, round: Option<u32>, start: Stamp, end: Stamp) {
        self.tracer.record(Span {
            name: name.to_string(),
            job: self.job,
            parent: Some(self.parent),
            source: Some(source),
            round,
            start,
            end,
        });
    }
}

/// Runs `f`, as a span named `name` when a scope is given, and returns
/// its result with its wall seconds.
pub fn timed<T>(scope: Option<SpanScope<'_>>, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let span = scope.map(|s| s.open(name));
    let t0 = Instant::now();
    let out = f();
    let seconds = t0.elapsed().as_secs_f64();
    if let (Some(s), Some(i)) = (scope, span) {
        s.tracer.close(i);
    }
    (out, seconds)
}

/// Driver-side decorator: times every send and every receive wait.
pub struct TracedTransport<'t, T> {
    inner: T,
    scope: SpanScope<'t>,
}

impl<'t, T> TracedTransport<'t, T> {
    pub fn new(inner: T, scope: SpanScope<'t>) -> Self {
        TracedTransport { inner, scope }
    }
}

impl<T: CommandTransport> CommandTransport for TracedTransport<'_, T> {
    fn sources(&self) -> usize {
        self.inner.sources()
    }

    fn send(&mut self, source: usize, cmd: &Command) -> Result<(), NetError> {
        let start = self.scope.tracer.now();
        let result = self.inner.send(source, cmd);
        let end = self.scope.tracer.now();
        self.scope.span("net.driver_send", source, None, start, end);
        result
    }

    fn send_encoded(&mut self, source: usize, enc: &EncodedCommand) -> Result<(), NetError> {
        let start = self.scope.tracer.now();
        let result = self.inner.send_encoded(source, enc);
        let end = self.scope.tracer.now();
        self.scope.span("net.driver_send", source, None, start, end);
        result
    }

    fn recv(&mut self, source: usize) -> Result<Response, NetError> {
        let start = self.scope.tracer.now();
        let result = self.inner.recv(source);
        let end = self.scope.tracer.now();
        self.scope
            .span("net.driver_recv_wait", source, None, start, end);
        result
    }

    fn stats(&self) -> &NetworkStats {
        self.inner.stats()
    }

    fn set_deadline(&mut self, policy: DeadlinePolicy) {
        self.inner.set_deadline(policy);
    }

    fn promote(&mut self, origin: usize, host: usize) -> Result<(), NetError> {
        self.inner.promote(origin, host)
    }

    fn replaying(&self) -> bool {
        self.inner.replaying()
    }
}

/// The executor span name of a round command.
fn command_kind(cmd: &Command, stages: &[Stage]) -> &'static str {
    match cmd {
        Command::Stage { index } => match stages.get(*index as usize) {
            Some(Stage::Dr(_)) => "executor.jl",
            Some(Stage::Cr(_)) => "executor.fss",
            Some(Stage::Stream(_)) => "executor.stream",
            Some(Stage::Qt(_)) => "executor.qt",
            Some(Stage::DisPca(_)) => "executor.dispca",
            Some(Stage::DisSs(_)) => "executor.disss",
            _ => "executor.stage",
        },
        Command::Deliver { .. } => "executor.deliver",
        Command::Transmit | Command::TransmitBasis => "executor.transmit",
        Command::Describe => "executor.describe",
        Command::Finish { .. } => "executor.finish",
        _ => "executor.other",
    }
}

/// Source-side decorator, after the `FailingEndpoint` pattern of the
/// CLI: times the wait for each command, the executor's busy interval
/// from command arrival to response hand-off, and the response send.
pub struct TracedEndpoint<'t, 'p, E> {
    inner: E,
    scope: SpanScope<'t>,
    source: usize,
    stages: &'p [Stage],
    round: u32,
    busy: Option<(&'static str, Stamp)>,
}

impl<'t, 'p, E> TracedEndpoint<'t, 'p, E> {
    pub fn new(inner: E, scope: SpanScope<'t>, source: usize, stages: &'p [Stage]) -> Self {
        TracedEndpoint {
            inner,
            scope,
            source,
            stages,
            round: 0,
            busy: None,
        }
    }
}

impl<E: SourceEndpoint> SourceEndpoint for TracedEndpoint<'_, '_, E> {
    fn recv_command(&mut self) -> Result<Command, NetError> {
        let start = self.scope.tracer.now();
        let result = self.inner.recv_command();
        let end = self.scope.tracer.now();
        self.scope
            .span("net.source_recv_wait", self.source, None, start, end);
        if let Ok(cmd) = &result {
            if cmd.is_round() {
                self.round += 1;
                self.busy = Some((command_kind(cmd, self.stages), end));
            }
        }
        result
    }

    fn send_response(&mut self, resp: Response) -> Result<(), NetError> {
        let start = self.scope.tracer.now();
        if let Some((kind, busy_start)) = self.busy.take() {
            self.scope
                .span(kind, self.source, Some(self.round), busy_start, start);
        }
        let result = self.inner.send_response(resp);
        let end = self.scope.tracer.now();
        self.scope
            .span("net.source_send", self.source, None, start, end);
        result
    }

    fn set_deadline(&mut self, policy: DeadlinePolicy) {
        self.inner.set_deadline(policy);
    }
}
