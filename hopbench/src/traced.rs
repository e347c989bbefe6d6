//! The traced per-layer run (`--trace 1`).
//!
//! One traced run measures, in order:
//!
//! 1. direct kernel calls on the workload's requests, and the builds,
//!    timed phase by phase in this process;
//! 2. the setups and an untraced TCP window, exactly as `--trace 0`;
//! 3. a traced TCP window: client spans `wire.encode`,
//!    `socket.roundtrip`, `wire.decode` under `client.request`;
//! 4. `Stats` round trips on a fresh connection (TCP, framing and the
//!    connection thread, without queue or kernel), and the server's
//!    own counters;
//! 5. an in-process replay of the same traffic through
//!    `ShardedNavigator::try_submit` / `Pending::wait_into` at the same
//!    concurrency and configuration, then a fixed-count allocation
//!    census of the query path.
//!
//! It then prints every per-layer metric, each span name's self time,
//! the residual between the sum of stage means and the untraced
//! end-to-end mean, and the tracing overhead; the spans are written to
//! `.bench_work/spans-<workload>.jsonl`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use hopspan_dynamic::DynConfig;
use hopspan_metric::EuclideanSpace;
use hopspan_serve::{BackendParams, MetricsSnapshot, Op, ServeConfig, ShardedNavigator};

use crate::cli::RunArgs;
use crate::conn::{Conn, Reply};
use crate::inputs::{Workload, MUTATION_RATE};
use crate::measure::{self, kind_of, quantile, Counts, Output};
use crate::reference::{self, record, valid, KernelScratch, Kernels, NavTimes};
use crate::run::{
    check_churn_done, drive, nanos, prepare_for, report_window, setups, ChurnState, Clock, Prepared,
};
use crate::trace::{self, Tracer, ROOT};

/// The per-layer metrics of the result line, in `BENCHMARK.json` order.
pub(crate) const PER_LAYER: [(&str, &str); 20] = [
    ("server.stats_rtt_p50_us", "us"),
    ("wire.encode_request_ns", "ns"),
    ("wire.decode_response_ns", "ns"),
    ("wire.bytes_per_request", "B"),
    ("wire.bytes_per_reply", "B"),
    ("shard.call_p50_us", "us"),
    ("shard.call_p99_us", "us"),
    ("shard.submit_ns", "ns"),
    ("batch.wait_p50_us", "us"),
    ("batch.mean_size", "count"),
    ("shard.allocs_per_query", "count"),
    ("nav.find_path_p50_ns", "ns"),
    ("nav.find_path_p99_ns", "ns"),
    ("nav.hops_mean", "count"),
    ("build.nav_cover_s", "s"),
    ("build.nav_spanners_s", "s"),
    ("build.nav_materialize_s", "s"),
    ("build.nav_edges", "count"),
    ("process.cpu_user_s", "s"),
    ("process.cpu_sys_s", "s"),
];

/// Requests of the fixed-count allocation census.
const ALLOC_CENSUS: usize = 2000;

/// `RouteAvoiding` calls timed directly (each scans every FT tree).
const FT_DIRECT_CAP: usize = 200;

pub(crate) fn run_traced(args: &RunArgs) -> Result<Output, String> {
    let origin = Instant::now();
    let mut main_tr = Tracer::new(origin, 1 << 12);
    let prep = prepare_for(args, true, Some(&mut main_tr))?;
    let dir = prep.dir.clone();
    let result = traced_body(args, prep, main_tr, origin);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Printed layer figures beyond the result line's.
struct Layers {
    metrics: BTreeMap<&'static str, f64>,
    extra: Vec<(String, f64, &'static str)>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn extra(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.extra.push((name.into(), value, unit));
    }
}

fn traced_body(
    args: &RunArgs,
    mut prep: Prepared,
    mut main_tr: Tracer,
    origin: Instant,
) -> Result<Output, String> {
    let workload = args.workload;
    let window = Duration::from_secs(args.seconds);
    let mut problems = Vec::new();
    let mut layers = Layers {
        metrics: BTreeMap::new(),
        extra: Vec::new(),
    };

    // 1. Direct kernel calls and build phases, before any server runs,
    // so the client's structures never sit in memory beside the
    // server's. `churn` builds its seed navigator here (the dynamic
    // engine's epoch 1).
    let kernels = match prep.kernels.take() {
        Some(k) => k,
        None => {
            let metric = EuclideanSpace::from_points(&prep.inputs.points);
            let cfg = DynConfig::default();
            let (nav, times) = main_tr.time("build.nav", || {
                reference::build_nav(&metric, cfg.tree_budget, cfg.k, cfg.seed)
            })?;
            Kernels::navigator_only(metric, nav, times)
        }
    };
    let epoch1_hx = hopspan_store::hx_hash(&kernels.nav);
    direct_kernels(&kernels, &prep, &mut main_tr, &mut layers);
    build_layers(&kernels.times.nav, &mut layers);
    if workload == Workload::MixedFt {
        let t = &kernels.times;
        layers.extra("build.router_s", t.router_s, "s");
        for (phase, s) in &t.ft_phases {
            layers.extra(format!("build.ft_{phase}_s"), *s, "s");
        }
        layers.extra("build.ft_edges", t.ft_edges as f64, "count");
        layers.extra("ft.trees", t.ft_trees as f64, "count");
    }
    drop(kernels);

    // 2. Setups and the untraced window.
    let mut probes = Counts::default();
    let (mut proc, port, setup_times) = setups(&prep, &mut probes, Some(&mut main_tr))?;
    let mut churn = ChurnState::default();
    let plain = drive(&prep, port, &mut proc, window, &mut churn, None)?;
    println!("-- untraced window");
    report_window(workload, &plain);

    // 3. The traced window.
    let cap = 1 << 19;
    let (mut t0, mut t1) = (Tracer::new(origin, cap), Tracer::new(origin, cap));
    let traced = drive(
        &prep,
        port,
        &mut proc,
        window,
        &mut churn,
        Some((&mut t0, &mut t1)),
    )?;
    println!("-- traced window");
    report_window(workload, &traced);
    problems.extend(plain.problems.iter().cloned());
    problems.extend(traced.problems.iter().cloned());

    // 4. Stats round trips and the server's counters.
    let (stats_rtt, snap) = stats_round_trips(port, &mut main_tr)?;
    let done = proc.stop()?;
    if workload == Workload::Churn {
        check_churn_done(&done, prep.inputs.points.len(), &churn, &mut problems);
    }
    let rtt_p50 = quantile(&stats_rtt, 0.50) as f64 / 1e3;
    layers.set("server.stats_rtt_p50_us", rtt_p50);
    layers.set(
        "batch.mean_size",
        snap.batched_jobs as f64 / snap.batches.max(1) as f64,
    );
    layers.extra("shard.shed", snap.shed as f64, "count");
    layers.extra("shard.errors", snap.errors as f64, "count");
    layers.extra("shard.degraded", snap.degraded as f64, "count");
    layers.extra("shard.retries", snap.retries as f64, "count");

    // Client codec figures come from the traced window's spans.
    let mut client = t0;
    client.absorb(t1);
    let span_p50 = |spans: &[trace::Span], name: &str| {
        let mut d: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        d.sort_unstable();
        quantile(&d, 0.50) as f64
    };
    layers.set(
        "wire.encode_request_ns",
        span_p50(&client.spans, "wire.encode"),
    );
    layers.set(
        "wire.decode_response_ns",
        span_p50(&client.spans, "wire.decode"),
    );
    let replies = traced.replies.max(1) as f64;
    layers.set("wire.bytes_per_request", traced.bytes_out as f64 / replies);
    layers.set("wire.bytes_per_reply", traced.bytes_in as f64 / replies);
    layers.set("process.cpu_user_s", plain.cpu.user_s);
    layers.set("process.cpu_sys_s", plain.cpu.sys_s);

    // 5. In-process replay and allocation census.
    let replay_window = Duration::from_secs((args.seconds / 2).max(1));
    let mut r0 = Tracer::new(origin, cap);
    let mut r1 = Tracer::new(origin, cap);
    replay(
        &prep,
        replay_window,
        epoch1_hx,
        &mut main_tr,
        (&mut r0, &mut r1),
        &mut layers,
        &mut problems,
    )?;

    // Spans, self times, residual and overhead.
    let mut all = main_tr;
    all.absorb(client);
    all.absorb(r0);
    all.absorb(r1);
    let selfs = trace::self_times(&all.spans);
    println!("-- span self times (mean per span)");
    for (name, st) in &selfs {
        println!(
            "span {name:<22} count {:>8}  mean {:>12.1} ns  self {:>12.1} ns",
            st.count, st.mean_ns, st.self_mean_ns
        );
    }
    let mean_of = |name: &str| selfs.get(name).map_or(0.0, |s| s.mean_ns);
    let stats_mean = measure::mean(&stats_rtt);
    let stages = [
        ("wire.encode", mean_of("wire.encode")),
        ("transport (server.stats round trip)", stats_mean),
        ("shard.try_submit", mean_of("shard.try_submit")),
        ("batch.wait", mean_of("batch.wait")),
        ("wire.decode", mean_of("wire.decode")),
    ];
    let stage_sum: f64 = stages.iter().map(|(_, ns)| ns).sum();
    let e2e_mean_ns = plain.queries().mean_us * 1e3;
    println!("-- stage means along the blocking path");
    for (name, ns) in &stages {
        println!("stage {name:<38} {:>12.1} ns", ns);
    }
    println!(
        "residual = untraced end-to-end mean {:.1} ns - stage sum {:.1} ns = {:.1} ns ({:.1}% of the mean)",
        e2e_mean_ns,
        stage_sum,
        e2e_mean_ns - stage_sum,
        100.0 * (e2e_mean_ns - stage_sum) / e2e_mean_ns.max(1.0)
    );
    println!(
        "tracing overhead = traced latency_p50_us {:.3} - untraced latency_p50_us {:.3} = {:.3} us",
        traced.queries().p50_us,
        plain.queries().p50_us,
        traced.queries().p50_us - plain.queries().p50_us
    );
    let spans_path = PathBuf::from(".bench_work").join(format!("spans-{}.jsonl", workload.name()));
    match trace::write_spans(&spans_path, &all.spans) {
        Ok(()) => println!(
            "spans: {} written to {}",
            all.spans.len(),
            spans_path.display()
        ),
        Err(e) => problems.push(format!("writing spans: {e}")),
    }

    println!("setup_s per round: {setup_times:?}");
    let mut counts = probes;
    measure::merge_counts(&mut counts, &plain.counts);
    measure::merge_counts(&mut counts, &traced.counts);
    let totals = measure::report_counts("total", &counts);
    for p in &problems {
        println!("check FAILED: {p}");
    }
    for (name, value, unit) in &layers.extra {
        println!("layer {name} = {value} {unit}");
    }
    let mut out = Output {
        correct: problems.is_empty(),
        attempted: totals.attempted,
        failed: totals.failed(),
        metrics: Vec::new(),
    };
    for (name, unit) in PER_LAYER {
        let value = layers
            .metrics
            .get(name)
            .copied()
            .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
        out.metric(name, value, unit);
    }
    Ok(out)
}

/// 2000 `Stats` round trips after 100 warm-up ones; returns the
/// measured round trips (ns) and the server's last snapshot.
fn stats_round_trips(port: u16, tr: &mut Tracer) -> Result<(Vec<u64>, MetricsSnapshot), String> {
    let mut conn = Conn::connect(port).map_err(|e| format!("connect: {e}"))?;
    let mut rtt = Vec::with_capacity(2000);
    let mut last = None;
    for i in 0..2100u64 {
        let start = Instant::now();
        let reply = conn.call(&Op::Stats);
        let end = Instant::now();
        match reply {
            Reply::Stats(s) => last = Some(s),
            other => return Err(format!("Stats request failed: {other:?}")),
        }
        if i >= 100 {
            tr.span("server.stats", start, end, ROOT, i);
            rtt.push(nanos(end - start));
        }
    }
    rtt.sort_unstable();
    Ok((rtt, last.ok_or("no Stats reply")?))
}

fn build_layers(t: &NavTimes, layers: &mut Layers) {
    layers.set("build.nav_cover_s", t.cover_s);
    layers.set("build.nav_spanners_s", t.spanners_s);
    layers.set("build.nav_materialize_s", t.materialize_s);
    layers.set("build.nav_edges", t.edges as f64);
    layers.extra("build.nav_trees", t.trees as f64, "count");
}

/// Times direct kernel calls on the workload's requests.
fn direct_kernels(kernels: &Kernels, prep: &Prepared, tr: &mut Tracer, layers: &mut Layers) {
    let ops: Vec<&Op> = prep.inputs.conns.iter().flatten().collect();
    let mut s = KernelScratch::default();
    let mut per_kind: [Vec<u64>; 3] = Default::default();
    let mut hops = Vec::new();
    const NAMES: [&str; 3] = ["nav.find_path", "routing.route", "ft.route_avoiding"];
    for (i, op) in ops.iter().enumerate() {
        let kind = kind_of(op);
        if kind > 2 || (kind == 2 && per_kind[2].len() >= FT_DIRECT_CAP) {
            continue;
        }
        let start = Instant::now();
        let ok = kernels.answer(op, &mut s).is_ok();
        let end = Instant::now();
        if !ok {
            continue;
        }
        tr.span(NAMES[kind], start, end, ROOT, i as u64);
        per_kind[kind].push(nanos(end - start));
        if kind == 0 {
            hops.push(s.out.len().saturating_sub(1) as u64);
        }
    }
    for v in &mut per_kind {
        v.sort_unstable();
    }
    let [nav, route, ft] = &per_kind;
    layers.set("nav.find_path_p50_ns", quantile(nav, 0.50) as f64);
    layers.set("nav.find_path_p99_ns", quantile(nav, 0.99) as f64);
    layers.set("nav.hops_mean", measure::mean(&hops));
    if !route.is_empty() {
        layers.extra("routing.route_p50_ns", quantile(route, 0.50) as f64, "ns");
    }
    if !ft.is_empty() {
        layers.extra(
            "ft.route_avoiding_p50_us",
            quantile(ft, 0.50) as f64 / 1e3,
            "us",
        );
        layers.extra(
            "ft.route_avoiding_p99_us",
            quantile(ft, 0.99) as f64 / 1e3,
            "us",
        );
    }
}

/// Latencies of one replay thread.
#[derive(Default)]
struct ReplayLoop {
    call_ns: Vec<u64>,
    submit_ns: Vec<u64>,
    wait_ns: Vec<u64>,
    mismatches: u64,
    failures: u64,
    epoch_regressions: u64,
}

/// One closed-loop replay thread through `try_submit` / `wait_into`,
/// spans `shard.call` with children `shard.try_submit` and
/// `batch.wait`. Static answers are checked against the reference
/// records; dynamic ones for validity and monotonic epochs.
fn replay_loop(
    engine: &ShardedNavigator,
    ops: &[Op],
    refs: &[u64],
    k: usize,
    clock: &Clock,
    tr: &mut Tracer,
) -> ReplayLoop {
    let mut r = ReplayLoop::default();
    let mut out = Vec::with_capacity(64);
    let mut last_epoch = 0;
    let mut i = 0usize;
    loop {
        let start = Instant::now();
        if start >= clock.end {
            break;
        }
        let op = ops[i % ops.len()];
        let submitted = engine.try_submit(op);
        let mid = Instant::now();
        let answer = submitted.and_then(|p| p.wait_epoch_into(&mut out));
        let end = Instant::now();
        let root = tr.span("shard.call", start, end, ROOT, i as u64);
        tr.span("shard.try_submit", start, mid, root, i as u64);
        tr.span("batch.wait", mid, end, root, i as u64);
        match answer {
            Ok((_, epoch)) => {
                let path: Vec<u32> = out.iter().map(|&p| p as u32).collect();
                if refs.is_empty() {
                    r.mismatches += u64::from(!valid(&op, &path, k));
                    r.epoch_regressions += u64::from(epoch < last_epoch);
                    last_epoch = last_epoch.max(epoch);
                } else {
                    r.mismatches +=
                        u64::from(record(&op, path.into_iter()) != refs[i % refs.len()]);
                }
            }
            Err(_) => r.failures += 1,
        }
        if start >= clock.measure {
            r.call_ns.push(nanos(end - start));
            r.submit_ns.push(nanos(mid - start));
            r.wait_ns.push(nanos(end - mid));
        }
        i += 1;
    }
    r
}

/// What the in-process `churn` mutator saw.
#[derive(Default)]
struct Mutator {
    insert_ns: Vec<u64>,
    remove_ns: Vec<u64>,
    epochs: BTreeMap<u64, (usize, usize)>,
    failures: u64,
}

/// Direct `DynamicNavigator::insert` / `remove` at the benchmark's
/// mutation rate; records each new epoch's reused and total trees.
fn replay_mutator(
    nav: &hopspan_dynamic::DynamicNavigator,
    fresh: &[Vec<f64>],
    clock: &Clock,
    tr: &mut Tracer,
) -> Mutator {
    let mut m = Mutator::default();
    let interval = Duration::from_secs_f64(1.0 / MUTATION_RATE);
    let mut pending = std::collections::VecDeque::new();
    let mut next = 0;
    let mut seen_epoch = nav.epoch_id();
    for i in 0u32.. {
        let due = clock.start + interval * i;
        if due >= clock.end {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let start = Instant::now();
        match pending.front().copied() {
            Some(id) if i % 2 == 1 => {
                let ok = nav.remove(id).is_ok();
                let end = Instant::now();
                tr.span("dynamic.remove", start, end, ROOT, u64::from(i));
                m.remove_ns.push(nanos(end - start));
                pending.pop_front();
                m.failures += u64::from(!ok);
            }
            _ => {
                let res = nav.insert(&fresh[next % fresh.len()]);
                let end = Instant::now();
                next += 1;
                tr.span("dynamic.insert", start, end, ROOT, u64::from(i));
                m.insert_ns.push(nanos(end - start));
                match res {
                    Ok((id, _)) => pending.push_back(id),
                    Err(_) => m.failures += 1,
                }
            }
        }
        let epoch = nav.epoch_id();
        if epoch != seen_epoch {
            let info = nav.epoch_info();
            m.epochs
                .insert(info.id, (info.reused_trees, info.tree_count));
            seen_epoch = epoch;
        }
    }
    m
}

/// Builds the workload's engine in-process, replays the traffic at the
/// same concurrency, then counts allocations over a fixed number of
/// queries.
fn replay(
    prep: &Prepared,
    window: Duration,
    epoch1_hx: u64,
    main_tr: &mut Tracer,
    (tr0, tr1): (&mut Tracer, &mut Tracer),
    layers: &mut Layers,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let workload = prep.inputs.workload;
    let cfg = ServeConfig::default();
    let n = prep.inputs.points.len();
    let engine = match workload {
        Workload::ReadUniform => {
            let path = &prep.input_path;
            let start = Instant::now();
            let bytes = main_tr
                .time("store.read", || hopspan_store::read_snapshot_bytes(path))
                .map_err(|e| e.to_string())?;
            let read = start.elapsed();
            let start = Instant::now();
            let snap = main_tr
                .time("store.decode", || hopspan_store::decode_snapshot(&bytes))
                .map_err(|e| e.to_string())?;
            let decode = start.elapsed();
            let start = Instant::now();
            let encoded = main_tr.time("store.encode", || {
                hopspan_store::encode_snapshot(&snap.points, &snap.navigator, None)
            });
            let encode = start.elapsed();
            if encoded != bytes {
                problems.push("re-encoded snapshot differs from the file".to_string());
            }
            layers.extra("store.read_ms", read.as_secs_f64() * 1e3, "ms");
            layers.extra("store.decode_ms", decode.as_secs_f64() * 1e3, "ms");
            layers.extra("store.encode_ms", encode.as_secs_f64() * 1e3, "ms");
            layers.extra("store.bytes_per_point", bytes.len() as f64 / n as f64, "B");
            drop(snap);
            main_tr.time("boot.replicated_from_snapshot", || {
                ShardedNavigator::replicated_from_snapshot(path, cfg)
            })
        }
        Workload::MixedFt => main_tr.time("boot.replicated", || {
            ShardedNavigator::replicated(
                &EuclideanSpace::from_points(&prep.inputs.points),
                &BackendParams::default(),
                cfg,
            )
        }),
        Workload::Churn => main_tr.time("boot.dynamic", || {
            ShardedNavigator::dynamic(&prep.inputs.points, DynConfig::default(), cfg)
        }),
    }
    .map_err(|e| format!("in-process engine: {e}"))?;

    let clock = Clock::new(Duration::from_millis(500), window);
    let conns = &prep.inputs.conns;
    let (a, b, mutator) = match engine.dynamic_handle() {
        None => std::thread::scope(|s| {
            let other =
                s.spawn(|| replay_loop(&engine, &conns[1], &prep.refs[1], prep.k, &clock, tr1));
            let mine = replay_loop(&engine, &conns[0], &prep.refs[0], prep.k, &clock, tr0);
            (
                mine,
                other.join().map_err(|_| "replay thread panicked"),
                None,
            )
        }),
        Some(dynh) => {
            if dynh.epoch_info().hx != epoch1_hx {
                problems.push("dynamic epoch 1 differs from the scratch seed build".to_string());
            }
            let _ = dynh.drain_rebuild_nanos();
            std::thread::scope(|s| {
                let reader = s.spawn(|| replay_loop(&engine, &conns[1], &[], prep.k, &clock, tr1));
                let m = replay_mutator(&dynh, &prep.inputs.fresh, &clock, tr0);
                (
                    ReplayLoop::default(),
                    reader.join().map_err(|_| "replay thread panicked"),
                    Some(m),
                )
            })
        }
    };
    let b = b?;
    for (label, r) in [("replay 0", &a), ("replay 1", &b)] {
        if r.mismatches > 0 {
            problems.push(format!(
                "{label}: {} answers differ from the reference",
                r.mismatches
            ));
        }
        if r.failures > 0 {
            problems.push(format!("{label}: {} requests failed", r.failures));
        }
        if r.epoch_regressions > 0 {
            problems.push(format!("{label}: epoch went backwards"));
        }
    }
    let mut call: Vec<u64> = a.call_ns.iter().chain(&b.call_ns).copied().collect();
    let mut submit: Vec<u64> = a.submit_ns.iter().chain(&b.submit_ns).copied().collect();
    let mut wait: Vec<u64> = a.wait_ns.iter().chain(&b.wait_ns).copied().collect();
    call.sort_unstable();
    submit.sort_unstable();
    wait.sort_unstable();
    layers.set("shard.call_p50_us", quantile(&call, 0.50) as f64 / 1e3);
    layers.set("shard.call_p99_us", quantile(&call, 0.99) as f64 / 1e3);
    layers.set("shard.submit_ns", quantile(&submit, 0.50) as f64);
    layers.set("batch.wait_p50_us", quantile(&wait, 0.50) as f64 / 1e3);
    layers.extra("shard.replay_calls", call.len() as f64, "count");

    if let (Some(m), Some(dynh)) = (mutator, engine.dynamic_handle()) {
        dynh.flush();
        let mut rebuilds = dynh.drain_rebuild_nanos();
        rebuilds.sort_unstable();
        let mut ins = m.insert_ns;
        let mut rem = m.remove_ns;
        ins.sort_unstable();
        rem.sort_unstable();
        if m.failures > 0 {
            problems.push(format!("replay mutator: {} mutations failed", m.failures));
        }
        let count = dynh.counters().rebuilds;
        let (reused, trees) = m
            .epochs
            .values()
            .fold((0, 0), |(r, t), &(er, et)| (r + er, t + et));
        layers.extra("dynamic.insert_us", quantile(&ins, 0.50) as f64 / 1e3, "us");
        layers.extra("dynamic.remove_us", quantile(&rem, 0.50) as f64 / 1e3, "us");
        layers.extra(
            "dynamic.rebuild_p50_ms",
            quantile(&rebuilds, 0.50) as f64 / 1e6,
            "ms",
        );
        layers.extra(
            "dynamic.rebuild_max_ms",
            rebuilds.last().copied().unwrap_or(0) as f64 / 1e6,
            "ms",
        );
        layers.extra("dynamic.rebuilds", count as f64, "count");
        layers.extra(
            "dynamic.mutations_per_rebuild",
            (ins.len() + rem.len()) as f64 / count.max(1) as f64,
            "count",
        );
        layers.extra(
            "dynamic.reused_tree_share",
            reused as f64 / trees.max(1) as f64,
            "ratio",
        );
    }

    // Allocation census: a fixed number of sequential queries through
    // the same path, after warm-up, with nothing else in flight.
    let ops = &conns[1];
    let mut out = Vec::with_capacity(64);
    let mut census = |count: usize| -> u64 {
        let mut failed = 0;
        for op in ops.iter().cycle().take(count) {
            if engine
                .try_submit(*op)
                .and_then(|p| p.wait_into(&mut out))
                .is_err()
            {
                failed += 1;
            }
        }
        failed
    };
    census(200);
    let before = crate::alloc::allocations();
    let failed = census(ALLOC_CENSUS);
    let allocs = crate::alloc::allocations() - before;
    if failed > 0 {
        problems.push(format!("allocation census: {failed} requests failed"));
    }
    layers.set(
        "shard.allocs_per_query",
        allocs as f64 / ALLOC_CENSUS as f64,
    );
    Ok(())
}
