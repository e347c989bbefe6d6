//! One benchmark run: prepare inputs, set the server up several times,
//! drive the measured window over loopback TCP, check every answer,
//! and report.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use hopspan_dynamic::DynConfig;
use hopspan_metric::EuclideanSpace;
use hopspan_serve::{BackendParams, Op};

use crate::cli::{self, Command, RunArgs};
use crate::conn::{Conn, Failure, Mark, Reply};
use crate::inputs::{self, Inputs, Workload, MUTATION_RATE};
use crate::measure::{self, kind_of, Counts, Output, Sample, WindowStats};
use crate::reference::{self, record, valid, Fnv, Kernels};
use crate::serve::{self, ServerProc};
use crate::trace::{Tracer, ROOT};
use crate::Build;

/// Entry point of both binaries. Returns the exit code.
pub fn main_with(build: Build) -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("hopbench: {e}\n{}", cli::USAGE);
            return 2;
        }
    };
    match cmd {
        Command::Serve { workload, input } => serve::serve_main(workload, &input),
        Command::Run(args) => {
            if args.trace != (build == Build::Traced) {
                eprintln!(
                    "hopbench: --trace 1 runs only as hopbench-traced and --trace 0 only as \
                     hopbench (use run.sh)"
                );
                return 2;
            }
            match run(&args) {
                Ok(out) => {
                    println!("{}", out.json());
                    0
                }
                Err(e) => {
                    eprintln!("hopbench: {e}");
                    1
                }
            }
        }
    }
}

/// Warm-up before each measured window.
fn warmup(workload: Workload) -> Duration {
    match workload {
        Workload::Churn => Duration::from_secs(2),
        Workload::ReadUniform | Workload::MixedFt => Duration::from_secs(1),
    }
}

/// How long the `churn` reader keeps reading after the window so that
/// late inserts can become visible.
const VISIBILITY_GRACE: Duration = Duration::from_secs(2);

/// Start, measured-window start and end of one traffic phase.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Clock {
    pub start: Instant,
    pub measure: Instant,
    pub end: Instant,
}

impl Clock {
    pub(crate) fn new(warm: Duration, window: Duration) -> Clock {
        let start = Instant::now();
        Clock {
            start,
            measure: start + warm,
            end: start + warm + window,
        }
    }

    pub(crate) fn window_s(&self) -> f64 {
        (self.end - self.measure).as_secs_f64()
    }

    /// The sample of a request sent at `sent` and done at `done`, or
    /// `None` outside the measured window.
    pub(crate) fn sample(&self, sent: Instant, done: Instant, kind: usize) -> Option<Sample> {
        if sent < self.measure || sent >= self.end {
            return None;
        }
        Some(Sample::new(
            (done - sent).as_nanos(),
            (sent - self.measure).as_nanos(),
            (self.end - self.measure).as_nanos(),
            kind,
        ))
    }
}

/// Everything prepared before the first setup: inputs on disk for the
/// serving process, and reference kernels for the checks.
pub(crate) struct Prepared {
    pub inputs: Inputs,
    /// The file the serving process reads (points, or the snapshot).
    pub input_path: PathBuf,
    /// Direct-call kernels (static workloads).
    pub kernels: Option<Kernels>,
    /// Reference records per connection list (static workloads).
    pub refs: [Vec<u64>; 2],
    /// Hop bound of `FindPath` answers.
    pub k: usize,
    /// The run's scratch directory.
    pub dir: PathBuf,
}

/// Generates the inputs and prepares them. With `keep_kernels` false the
/// reference kernels are dropped once the reference records exist, so
/// the client holds no second copy of the structures while the server
/// runs.
pub(crate) fn prepare_for(
    args: &RunArgs,
    keep_kernels: bool,
    mut tr: Option<&mut Tracer>,
) -> Result<Prepared, String> {
    let inputs = inputs::generate(args.workload, args.seed);
    let dir = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let params = BackendParams::default();
    let mut refs = [Vec::new(), Vec::new()];
    let (input_path, kernels, k) = match args.workload {
        Workload::ReadUniform => {
            let metric = EuclideanSpace::from_points(&inputs.points);
            let (nav, times) = timed(&mut tr, "build.nav", || {
                reference::build_nav(&metric, params.tree_budget, params.k, params.seed)
            })?;
            let path = dir.join("boot.hsnp");
            timed(&mut tr, "store.write_snapshot", || {
                hopspan_store::write_snapshot_file(&path, &metric, &nav, None)
            })
            .map_err(|e| format!("write snapshot: {e}"))?;
            let kernels = Kernels::navigator_only(metric, nav, times);
            let k = kernels.k;
            (path, Some(kernels), k)
        }
        Workload::MixedFt => {
            let path = dir.join("points.bin");
            inputs::write_points(&path, &inputs.points).map_err(|e| e.to_string())?;
            let kernels = timed(&mut tr, "build.backend", || {
                Kernels::backend(&inputs.points, &params)
            })?;
            let k = kernels.k;
            (path, Some(kernels), k)
        }
        Workload::Churn => {
            let path = dir.join("points.bin");
            inputs::write_points(&path, &inputs.points).map_err(|e| e.to_string())?;
            (path, None, DynConfig::default().k)
        }
    };
    if let Some(kernels) = &kernels {
        for (r, ops) in refs.iter_mut().zip(&inputs.conns) {
            *r = kernels.records(ops)?;
        }
    }
    let kernels = if keep_kernels { kernels } else { None };
    Ok(Prepared {
        inputs,
        input_path,
        kernels,
        refs,
        k,
        dir,
    })
}

/// Runs `f` inside a root span when tracing.
pub(crate) fn timed<R>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match tr {
        Some(t) => t.time(name, f),
        None => f(),
    }
}

/// The plain `hopbench` executable, which serves.
fn server_exe() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(me.with_file_name("hopbench"))
}

/// Sets the server up once: from `go` to the first answered request.
fn setup_once(
    exe: &Path,
    prep: &Prepared,
    probes: &mut Counts,
) -> Result<(ServerProc, u16, f64), String> {
    let mut proc = ServerProc::spawn(exe, prep.inputs.workload, &prep.input_path)?;
    let first = Op::FindPath { u: 0, v: 1 };
    let start = Instant::now();
    let port = proc.go()?;
    let mut conn = Conn::connect(port).map_err(|e| format!("connect: {e}"))?;
    let reply = conn.call(&first);
    let setup_s = start.elapsed().as_secs_f64();
    probes[kind_of(&first)].record(&reply);
    if !matches!(reply, Reply::Path { .. }) || !valid(&first, &conn.path, prep.k) {
        return Err(format!("first request after setup failed: {reply:?}"));
    }
    Ok((proc, port, setup_s))
}

/// Sets up `workload.setups()` times; returns the last server, still
/// running, with every setup time.
pub(crate) fn setups(
    prep: &Prepared,
    probes: &mut Counts,
    mut tr: Option<&mut Tracer>,
) -> Result<(ServerProc, u16, Vec<f64>), String> {
    let exe = server_exe()?;
    let mut times = Vec::new();
    let rounds = prep.inputs.workload.setups();
    for round in 0..rounds {
        let (proc, port, s) = timed(&mut tr, "boot.server_setup", || {
            setup_once(&exe, prep, probes)
        })?;
        times.push(s);
        if round + 1 == rounds {
            return Ok((proc, port, times));
        }
        proc.stop()?;
    }
    Err("no setup rounds".to_string())
}

/// Sets up and stops the server `rounds` times; returns the set-up times.
fn setups_after(prep: &Prepared, probes: &mut Counts, rounds: usize) -> Result<Vec<f64>, String> {
    let exe = server_exe()?;
    let mut times = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let (proc, _port, s) = setup_once(&exe, prep, probes)?;
        times.push(s);
        proc.stop()?;
    }
    Ok(times)
}

/// What one closed-loop connection saw.
#[derive(Debug, Default)]
pub(crate) struct LoopResult {
    pub counts: Counts,
    pub samples: Vec<Sample>,
    pub digest: u64,
    pub ref_digest: u64,
    pub invalid: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
    pub replies: u64,
    /// `churn` reader: epochs that went backwards.
    pub epoch_regressions: u64,
    /// `churn` reader: first instant each epoch was seen.
    pub epochs_seen: Vec<(u64, Instant)>,
}

/// Server CPU over the measured window.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Cpu {
    pub user_s: f64,
    pub sys_s: f64,
}

/// Samples the serving process's CPU time when connection 0 enters the
/// measured window and again when it leaves it.
pub(crate) struct CpuProbe<'a> {
    proc: &'a mut ServerProc,
    start: Option<(f64, f64)>,
    cpu: Cpu,
}

impl<'a> CpuProbe<'a> {
    fn new(proc: &'a mut ServerProc) -> Self {
        CpuProbe {
            proc,
            start: None,
            cpu: Cpu::default(),
        }
    }

    /// Takes the start sample, once.
    fn start(&mut self) -> Result<(), String> {
        if self.start.is_none() {
            self.start = Some(self.proc.cpu()?);
        }
        Ok(())
    }

    /// Takes the end sample, if the window was entered.
    fn stop(&mut self) -> Result<(), String> {
        if let Some((u0, s0)) = self.start {
            let (u1, s1) = self.proc.cpu()?;
            self.cpu = Cpu {
                user_s: u1 - u0,
                sys_s: s1 - s0,
            };
        }
        Ok(())
    }
}

/// One closed-loop connection over a static engine, sending `ops` in
/// order (cycled) until the clock ends.
pub(crate) fn closed_loop(
    port: u16,
    ops: &[Op],
    refs: &[u64],
    k: usize,
    clock: &Clock,
    mut cpu: Option<&mut CpuProbe<'_>>,
    mut tr: Option<&mut Tracer>,
) -> Result<LoopResult, String> {
    let mut conn = Conn::connect(port).map_err(|e| format!("connect: {e}"))?;
    let mut res = LoopResult {
        samples: Vec::with_capacity(1 << 16),
        ..LoopResult::default()
    };
    let (mut digest, mut ref_digest) = (Fnv::default(), Fnv::default());
    let mut i = 0usize;
    loop {
        let sent = Instant::now();
        if sent >= clock.end {
            break;
        }
        if sent >= clock.measure {
            if let Some(probe) = cpu.as_deref_mut() {
                probe.start()?;
            }
        }
        let op = &ops[i % ops.len()];
        let reply = call(&mut conn, op, i as u64, &mut tr);
        let done = Instant::now();
        let kind = kind_of(op);
        res.counts[kind].record(&reply);
        match reply {
            Reply::Path { .. } => {
                digest.u64(record(op, conn.path.iter().copied()));
                ref_digest.u64(refs[i % refs.len()]);
                res.invalid += u64::from(!valid(op, &conn.path, k));
                res.samples.extend(clock.sample(sent, done, kind));
            }
            Reply::Failed(Failure::Dropped) => break,
            _ => {}
        }
        i += 1;
    }
    if let Some(probe) = cpu {
        probe.stop()?;
    }
    res.digest = digest.0;
    res.ref_digest = ref_digest.0;
    res.bytes_out = conn.bytes_out;
    res.bytes_in = conn.bytes_in;
    res.replies = conn.replies;
    Ok(res)
}

/// One request, traced as `client.request` with children `wire.encode`,
/// `socket.roundtrip` and `wire.decode` when a tracer is given.
fn call(conn: &mut Conn, op: &Op, request: u64, tr: &mut Option<&mut Tracer>) -> Reply {
    let Some(tr) = tr else {
        return conn.call(op);
    };
    let start = Instant::now();
    let (mut encoded, mut received) = (start, start);
    let reply = conn.call_marked(op, |m| match m {
        Mark::Encoded => encoded = Instant::now(),
        Mark::Received => received = Instant::now(),
    });
    let end = Instant::now();
    let root = tr.span("client.request", start, end, ROOT, request);
    tr.span("wire.encode", start, encoded, root, request);
    tr.span("socket.roundtrip", encoded, received, root, request);
    tr.span("wire.decode", received, end, root, request);
    reply
}

/// State of the `churn` mutation stream, carried across windows.
#[derive(Debug, Default)]
pub(crate) struct ChurnState {
    /// Inserted ids not yet removed, oldest first.
    pub pending: VecDeque<u32>,
    /// Next index into the fresh points.
    pub next_fresh: usize,
}

/// What the open-loop mutation stream saw.
#[derive(Debug, Default)]
pub(crate) struct MutationResult {
    pub counts: Counts,
    /// Due-to-ack latency of measured mutations, ns.
    pub latency_ns: Vec<u64>,
    /// Send-minus-due lateness of measured mutations, ns.
    pub late_ns: Vec<u64>,
    /// Measured inserts: (due instant, commit epoch).
    pub inserts: Vec<(Instant, u64)>,
}

/// The open-loop `churn` mutation stream on connection 0: at
/// [`MUTATION_RATE`], alternately insert a fresh point and remove the
/// oldest inserted id. Each mutation is timed from its due time.
pub(crate) fn mutation_stream(
    port: u16,
    fresh: &[Vec<f64>],
    state: &mut ChurnState,
    clock: &Clock,
    max_commit: &AtomicU64,
    cpu: &mut CpuProbe<'_>,
) -> Result<MutationResult, String> {
    let mut conn = Conn::connect(port).map_err(|e| format!("connect: {e}"))?;
    let mut res = MutationResult::default();
    let interval = Duration::from_secs_f64(1.0 / MUTATION_RATE);
    for m in 0u32.. {
        let due = clock.start + interval * m;
        if due >= clock.end {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if due >= clock.measure {
            cpu.start()?;
        }
        let insert = m % 2 == 0 || state.pending.is_empty();
        let op = match (insert, state.pending.front()) {
            (false, Some(&id)) => Op::Remove { id },
            _ => {
                let p = &fresh[state.next_fresh % fresh.len()];
                state.next_fresh += 1;
                Op::insert(p).map_err(|e| e.to_string())?
            }
        };
        let sent = Instant::now();
        let reply = conn.call(&op);
        let acked = Instant::now();
        res.counts[kind_of(&op)].record(&reply);
        let measured = due >= clock.measure;
        match (reply, op) {
            (Reply::Mutation { id, epoch }, Op::Insert { .. }) => {
                state.pending.push_back(id);
                max_commit.fetch_max(epoch, Ordering::SeqCst);
                if measured {
                    res.inserts.push((due, epoch));
                }
            }
            (Reply::Mutation { id, .. }, Op::Remove { .. })
                if state.pending.front() == Some(&id) =>
            {
                state.pending.pop_front();
            }
            (Reply::Failed(Failure::Dropped), _) => break,
            _ => {}
        }
        if measured && matches!(reply, Reply::Mutation { .. }) {
            res.latency_ns.push(nanos(acked - due));
            res.late_ns.push(nanos(sent.saturating_duration_since(due)));
        }
    }
    cpu.stop()?;
    Ok(res)
}

pub(crate) fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The closed-loop `churn` reader on connection 1: `FindPath` over seed
/// ids, checking that echoed epochs never decrease. After the window
/// it keeps reading (unmeasured) until it has seen an epoch past every
/// insert's commit epoch, or the grace period ends.
pub(crate) fn churn_reader(
    port: u16,
    ops: &[Op],
    k: usize,
    clock: &Clock,
    max_commit: &AtomicU64,
    mutations_done: &AtomicBool,
    mut tr: Option<&mut Tracer>,
) -> Result<LoopResult, String> {
    let mut conn = Conn::connect(port).map_err(|e| format!("connect: {e}"))?;
    let mut res = LoopResult {
        samples: Vec::with_capacity(1 << 16),
        ..LoopResult::default()
    };
    let mut last_epoch = 0u64;
    let mut i = 0usize;
    loop {
        let sent = Instant::now();
        if sent >= clock.end {
            let caught_up = mutations_done.load(Ordering::SeqCst)
                && last_epoch > max_commit.load(Ordering::SeqCst);
            if caught_up || sent >= clock.end + VISIBILITY_GRACE {
                break;
            }
        }
        let op = &ops[i % ops.len()];
        let reply = call(&mut conn, op, i as u64, &mut tr);
        let done = Instant::now();
        let kind = kind_of(op);
        if sent < clock.end {
            res.counts[kind].record(&reply);
        }
        match reply {
            Reply::Path { epoch, .. } => {
                if epoch < last_epoch {
                    res.epoch_regressions += 1;
                } else if epoch > last_epoch {
                    res.epochs_seen.push((epoch, done));
                    last_epoch = epoch;
                }
                res.invalid += u64::from(!valid(op, &conn.path, k));
                res.samples.extend(clock.sample(sent, done, kind));
            }
            Reply::Failed(Failure::Dropped) => break,
            _ => {}
        }
        i += 1;
    }
    res.bytes_out = conn.bytes_out;
    res.bytes_in = conn.bytes_in;
    res.replies = conn.replies;
    Ok(res)
}

/// Due-to-visible latencies of measured inserts, ns (sorted), plus the number
/// never seen visible.
pub(crate) fn visibility_ns(
    inserts: &[(Instant, u64)],
    seen: &[(u64, Instant)],
) -> (Vec<u64>, usize) {
    let mut vis = Vec::new();
    let mut unseen = 0;
    for &(due, commit) in inserts {
        match seen.iter().find(|(epoch, _)| *epoch > commit) {
            Some(&(_, at)) => vis.push(nanos(at.saturating_duration_since(due))),
            None => unseen += 1,
        }
    }
    vis.sort_unstable();
    (vis, unseen)
}

/// The traffic phase of one window, across both connections.
#[derive(Debug, Default)]
pub(crate) struct Window {
    pub counts: Counts,
    pub samples: Vec<Sample>,
    pub window_s: f64,
    pub cpu: Cpu,
    pub problems: Vec<String>,
    pub bytes_out: u64,
    pub bytes_in: u64,
    pub replies: u64,
    pub mutations: MutationResult,
    /// `churn`: visibility latencies (ns, sorted) and unseen inserts.
    pub visibility: (Vec<u64>, usize),
}

impl Window {
    fn absorb_loop(&mut self, label: &str, r: LoopResult, check_digest: bool) {
        measure::merge_counts(&mut self.counts, &r.counts);
        self.samples.extend(r.samples);
        self.bytes_out += r.bytes_out;
        self.bytes_in += r.bytes_in;
        self.replies += r.replies;
        if check_digest && r.digest != r.ref_digest {
            self.problems.push(format!(
                "{label}: answer digest {:016x} != reference digest {:016x}",
                r.digest, r.ref_digest
            ));
        }
        if r.invalid > 0 {
            self.problems
                .push(format!("{label}: {} invalid paths", r.invalid));
        }
        if r.epoch_regressions > 0 {
            self.problems.push(format!(
                "{label}: epoch went backwards {} times",
                r.epoch_regressions
            ));
        }
    }

    /// Query-op latency and throughput.
    pub(crate) fn queries(&self) -> WindowStats {
        measure::window_stats(&self.samples, self.window_s, |k| k <= 2)
    }
}

/// Drives one window of the workload's traffic against `port`, with
/// tracers for the two client threads when tracing.
pub(crate) fn drive(
    prep: &Prepared,
    port: u16,
    proc: &mut ServerProc,
    window: Duration,
    churn: &mut ChurnState,
    tracers: Option<(&mut Tracer, &mut Tracer)>,
) -> Result<Window, String> {
    let workload = prep.inputs.workload;
    let (tr0, tr1) = match tracers {
        Some((a, b)) => (Some(a), Some(b)),
        None => (None, None),
    };
    let clock = Clock::new(warmup(workload), window);
    let mut out = Window {
        window_s: clock.window_s(),
        ..Window::default()
    };
    let mut cpu = CpuProbe::new(proc);
    let conns = &prep.inputs.conns;
    match workload {
        Workload::ReadUniform | Workload::MixedFt => {
            let (r0, r1) = std::thread::scope(|s| {
                let other = s.spawn(|| {
                    closed_loop(port, &conns[1], &prep.refs[1], prep.k, &clock, None, tr1)
                });
                let mine = closed_loop(
                    port,
                    &conns[0],
                    &prep.refs[0],
                    prep.k,
                    &clock,
                    Some(&mut cpu),
                    tr0,
                );
                (
                    mine,
                    other
                        .join()
                        .map_err(|_| "client thread panicked".to_string()),
                )
            });
            out.absorb_loop("connection 0", r0?, true);
            out.absorb_loop("connection 1", r1??, true);
        }
        Workload::Churn => {
            let max_commit = AtomicU64::new(0);
            let done = AtomicBool::new(false);
            let (m, r) = std::thread::scope(|s| {
                let reader = s.spawn(|| {
                    churn_reader(port, &conns[1], prep.k, &clock, &max_commit, &done, tr1)
                });
                let m = mutation_stream(
                    port,
                    &prep.inputs.fresh,
                    churn,
                    &clock,
                    &max_commit,
                    &mut cpu,
                );
                done.store(true, Ordering::SeqCst);
                (
                    m,
                    reader
                        .join()
                        .map_err(|_| "client thread panicked".to_string()),
                )
            });
            let m = m?;
            let r = r??;
            out.visibility = visibility_ns(&m.inserts, &r.epochs_seen);
            measure::merge_counts(&mut out.counts, &m.counts);
            out.absorb_loop("reader", r, false);
            out.mutations = m;
        }
    }
    out.cpu = cpu.cpu;
    Ok(out)
}

/// Checks the stopped `churn` server against what the client did: the
/// published `H_X` equals a scratch build, and the live set is exactly
/// the seed ids plus the inserts not yet removed.
pub(crate) fn check_churn_done(
    done: &serve::Done,
    n: usize,
    churn: &ChurnState,
    problems: &mut Vec<String>,
) {
    if done.hx_match != Some(true) {
        problems.push("published H_X differs from a from-scratch build".to_string());
    }
    let mut live: Vec<u32> = (0..n as u32).chain(churn.pending.iter().copied()).collect();
    live.sort_unstable();
    if done.live != live.len() || done.ids_digest != serve::ids_digest(&live) {
        problems.push(format!(
            "published live set ({} ids) differs from the client's ({} ids)",
            done.live,
            live.len()
        ));
    }
}

fn run(args: &RunArgs) -> Result<Output, String> {
    if args.trace {
        return crate::traced::run_traced(args);
    }
    let prep = prepare_for(args, false, None)?;
    let result = run_untraced(args, &prep);
    let _ = std::fs::remove_dir_all(&prep.dir);
    result
}

fn run_untraced(args: &RunArgs, prep: &Prepared) -> Result<Output, String> {
    let mut probes = Counts::default();
    let (mut proc, port, mut setup_times) = setups(prep, &mut probes, None)?;
    let mut churn = ChurnState::default();
    let window = drive(
        prep,
        port,
        &mut proc,
        Duration::from_secs(args.seconds),
        &mut churn,
        None,
    )?;
    let done = proc.stop()?;
    let mut problems = window.problems.clone();
    if args.workload == Workload::Churn {
        check_churn_done(&done, prep.inputs.points.len(), &churn, &mut problems);
    }
    setup_times.extend(setups_after(
        prep,
        &mut probes,
        args.workload.setups_after(),
    )?);
    report_window(args.workload, &window);
    let mut all = probes;
    measure::merge_counts(&mut all, &window.counts);
    let totals = measure::report_counts("total", &all);
    for p in &problems {
        println!("check FAILED: {p}");
    }
    println!("setup_s per round: {setup_times:?}");
    let mut out = Output {
        correct: problems.is_empty(),
        attempted: totals.attempted,
        failed: totals.failed(),
        metrics: Vec::new(),
    };
    out.metric("setup_s", measure::median(&setup_times), "s");
    out.metric("latency_p50_us", window.queries().p50_us, "us");
    out.metric("rss_mb", done.max_rss_kb as f64 / 1024.0, "MB");
    out.metric("slowest_query_p50_us", slowest_query_p50_us(&window), "us");
    Ok(out)
}

/// The largest per-kind pooled p50 latency among the query kinds the
/// window sent: `FindPath` on `read-uniform` and `churn`,
/// `RouteAvoiding` (`ft_p50_us`) on `mixed-ft`. A slower kernel of a
/// rare kind shows here undiluted by the rest of the mix.
fn slowest_query_p50_us(w: &Window) -> f64 {
    (0..=2)
        .map(|kind| measure::window_stats(&w.samples, w.window_s, |k| k == kind))
        .filter(|s| s.count > 0)
        .map(|s| s.pooled_p50_us)
        .fold(0.0, f64::max)
}

/// Prints one reported figure: measured every run, not in the result
/// line (see README.md for why each is reported rather than gated).
fn report(name: &str, value: f64, unit: &str, note: &str) {
    println!("report {name} = {value} {unit}{note}");
}

/// Prints a window's latency profile, failure accounting and the
/// end-to-end figures that the result line does not carry.
pub(crate) fn report_window(workload: Workload, w: &Window) {
    let q = w.queries();
    let mut lat: Vec<u64> = w
        .samples
        .iter()
        .filter(|s| s.kind <= 2)
        .map(|s| u64::from(s.ns))
        .collect();
    lat.sort_unstable();
    let profile: Vec<String> = [0.5, 0.9, 0.99, 0.999]
        .iter()
        .map(|&p| {
            format!(
                "p{} {:.1}",
                p * 100.0,
                measure::quantile(&lat, p) as f64 / 1e3
            )
        })
        .collect();
    println!(
        "workload {} window {:.3} s: {} query samples; latency (us) {}; mean {:.1}",
        workload.name(),
        w.window_s,
        q.count,
        profile.join(", "),
        q.mean_us
    );
    measure::report_counts("window", &w.counts);
    let attempted: u64 = w.counts.iter().map(|c| c.attempted).sum();
    let failed: u64 = w.counts.iter().map(|c| c.failed()).sum();
    let samples = |n: usize| format!(" ({n} samples)");
    report(
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        &format!(" ({failed} failed of {attempted} attempted)"),
    );
    report("throughput_qps", q.qps, "1/s", "");
    report("latency_p99_us", q.p99_us, "us", &samples(q.count));
    if workload == Workload::MixedFt {
        let ft = measure::window_stats(&w.samples, w.window_s, |k| k == 2);
        report("ft_p50_us", ft.pooled_p50_us, "us", &samples(ft.count));
    }
    if workload == Workload::Churn {
        let m = &w.mutations;
        let mut lat = m.latency_ns.clone();
        lat.sort_unstable();
        let mut late = m.late_ns.clone();
        late.sort_unstable();
        let us = |v: u64| v as f64 / 1e3;
        let ms = |v: u64| v as f64 / 1e6;
        report(
            "mutation_p50_us",
            us(measure::quantile(&lat, 0.50)),
            "us",
            &samples(lat.len()),
        );
        report(
            "mutation_p99_us",
            us(measure::quantile(&lat, 0.99)),
            "us",
            &samples(lat.len()),
        );
        let (vis, unseen) = &w.visibility;
        let note = format!(
            " ({} inserts seen, {unseen} not seen within the grace period)",
            vis.len()
        );
        report(
            "visibility_p50_ms",
            ms(measure::quantile(vis, 0.50)),
            "ms",
            &note,
        );
        report(
            "visibility_p90_ms",
            ms(measure::quantile(vis, 0.90)),
            "ms",
            &note,
        );
        report(
            "generator_late_p50_us",
            us(measure::quantile(&late, 0.50)),
            "us",
            "",
        );
        report(
            "generator_late_max_us",
            us(late.last().copied().unwrap_or(0)),
            "us",
            "",
        );
    }
    report(
        "server_cpu_user_s",
        w.cpu.user_s,
        "s",
        " (serving process, measured window)",
    );
    report(
        "server_cpu_sys_s",
        w.cpu.sys_s,
        "s",
        " (serving process, measured window)",
    );
}
