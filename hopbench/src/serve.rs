//! The serving process and the client's handle on it.
//!
//! The benchmark re-runs its own executable as `serve`. The child
//! reads its input file, prints `loaded`, and waits for `go` on stdin;
//! the client starts the `setup_s` clock when it writes `go`. The child
//! then builds its engine with `ServeConfig::default()`, starts
//! `hopspan_serve::Server` on 127.0.0.1, and prints `ready <port>`.
//! Further stdin lines: `cpu` (answers `cpu <user_s> <sys_s>`) and
//! `stop` (shuts down, runs the `churn` oracle, answers `done …`).

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;

use hopspan_core::MetricNavigator;
use hopspan_dynamic::DynConfig;
use hopspan_metric::EuclideanSpace;
use hopspan_serve::{BackendParams, ServeConfig, Server, ShardedNavigator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::inputs::{read_points, Workload};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    /// `ru_maxrss` first, then the remaining `long` fields.
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// This process's CPU time and peak resident set size.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Peak resident set size, KiB.
    pub max_rss_kb: u64,
}

/// `getrusage(RUSAGE_SELF)`.
pub fn usage() -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the x86-64 /
    // aarch64 Linux layout (two `timeval`s then fourteen `long`s), and
    // RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut ru) };
    if rc != 0 {
        return Usage::default();
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        user_s: secs(&ru.utime),
        sys_s: secs(&ru.stime),
        max_rss_kb: u64::try_from(ru.rest[0]).unwrap_or(0),
    }
}

/// Builds the workload's engine exactly as a user would: the default
/// service configuration over the given inputs.
fn build_engine(workload: Workload, input: &Path, points: &[Vec<f64>]) -> ShardedNavigator {
    let cfg = ServeConfig::default();
    let built = match workload {
        Workload::ReadUniform => ShardedNavigator::replicated_from_snapshot(input, cfg),
        Workload::MixedFt => ShardedNavigator::replicated(
            &EuclideanSpace::from_points(points),
            &BackendParams::default(),
            cfg,
        ),
        Workload::Churn => ShardedNavigator::dynamic(points, DynConfig::default(), cfg),
    };
    match built {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("hopbench serve: engine build failed: {e}");
            std::process::exit(3);
        }
    }
}

/// The child process body. Returns the exit code.
pub fn serve_main(workload: Workload, input: &str) -> i32 {
    let input = Path::new(input);
    // The snapshot is the setup of `read-uniform`; the other workloads
    // read their point set before the clock starts.
    let points = match workload {
        Workload::ReadUniform => Vec::new(),
        Workload::MixedFt | Workload::Churn => match read_points(input) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("hopbench serve: {}: {e}", input.display());
                return 3;
            }
        },
    };
    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    let mut out = std::io::stdout().lock();
    let say = |out: &mut std::io::StdoutLock<'_>, s: String| {
        // A closed pipe means the client is gone; the next stdin read
        // then ends the process.
        let _ = writeln!(out, "{s}");
        let _ = out.flush();
    };
    say(&mut out, "loaded".to_string());
    match lines.next() {
        Some(Ok(l)) if l == "go" => {}
        _ => return 0,
    }
    let engine = Arc::new(build_engine(workload, input, &points));
    let handle = match Server::start(Arc::clone(&engine), "127.0.0.1:0") {
        Ok(h) => h,
        Err(e) => {
            eprintln!("hopbench serve: bind failed: {e}");
            return 3;
        }
    };
    say(&mut out, format!("ready {}", handle.local_addr().port()));
    for line in lines {
        let Ok(line) = line else { break };
        match line.as_str() {
            "cpu" => {
                let u = usage();
                say(&mut out, format!("cpu {} {}", u.user_s, u.sys_s));
            }
            "stop" => {
                let u = usage();
                handle.shutdown();
                let oracle = match engine.dynamic_handle() {
                    Some(dynh) => churn_oracle(&dynh),
                    None => String::new(),
                };
                say(&mut out, format!("done {}{oracle}", u.max_rss_kb));
                return 0;
            }
            _ => {}
        }
    }
    0
}

/// Drains the mutation log and compares the published `H_X` with a
/// from-scratch `general_budgeted` build over the live set. Answers
/// ` <hx_match 0|1> <live id digest> <live count>`.
fn churn_oracle(nav: &hopspan_dynamic::DynamicNavigator) -> String {
    let info = nav.flush();
    let ids = nav.published_ids();
    let points: Vec<Vec<f64>> = ids.iter().filter_map(|&id| nav.coords_of(id)).collect();
    let cfg = DynConfig::default();
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let hx_match = match MetricNavigator::general_budgeted(
        &EuclideanSpace::from_points(&points),
        cfg.tree_budget,
        cfg.k,
        &mut rng,
    ) {
        Ok((scratch, _gamma)) => {
            points.len() == ids.len() && hopspan_store::hx_hash(&scratch) == info.hx
        }
        Err(_) => false,
    };
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    format!(
        " {} {} {}",
        u8::from(hx_match),
        ids_digest(&sorted),
        ids.len()
    )
}

/// FNV-1a over sorted ids (little-endian `u32`s).
pub fn ids_digest(sorted: &[u32]) -> u64 {
    let bytes: Vec<u8> = sorted.iter().flat_map(|id| id.to_le_bytes()).collect();
    hopspan_serve::wire::fnv1a(&bytes)
}

/// What the serving child reported when it stopped.
#[derive(Debug, Clone, Default)]
pub struct Done {
    /// Peak resident set size of the serving process, KiB.
    pub max_rss_kb: u64,
    /// `churn`: whether the published `H_X` equalled the scratch build.
    pub hx_match: Option<bool>,
    /// `churn`: digest of the published live ids.
    pub ids_digest: u64,
    /// `churn`: number of published live ids.
    pub live: usize,
}

/// The client's handle on a serving child.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    /// Starts `exe serve` and waits until it has read its inputs.
    ///
    /// # Errors
    ///
    /// Spawn failures, or a child that exits before `loaded`.
    pub fn spawn(exe: &Path, workload: Workload, input: &Path) -> Result<Self, String> {
        let mut child = Command::new(exe)
            .arg("serve")
            .arg("--workload")
            .arg(workload.name())
            .arg("--input")
            .arg(input)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdin = child.stdin.take().ok_or("child stdin")?;
        let stdout = BufReader::new(child.stdout.take().ok_or("child stdout")?);
        let mut proc = ServerProc {
            child,
            stdin,
            stdout,
        };
        let line = proc.read_line()?;
        if line != "loaded" {
            return Err(format!("serving child said {line:?}, expected loaded"));
        }
        Ok(proc)
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("serving child exited".to_string()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("serving child: {e}")),
        }
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.stdin, "{line}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("serving child stdin: {e}"))
    }

    /// Sends `go` (the caller starts its setup clock first) and waits
    /// for the listening port.
    ///
    /// # Errors
    ///
    /// A child that fails to build or bind.
    pub fn go(&mut self) -> Result<u16, String> {
        self.send("go")?;
        let line = self.read_line()?;
        line.strip_prefix("ready ")
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("serving child said {line:?}, expected ready"))
    }

    /// The child's CPU time so far: `(user_s, sys_s)`.
    ///
    /// # Errors
    ///
    /// A dead child.
    pub fn cpu(&mut self) -> Result<(f64, f64), String> {
        self.send("cpu")?;
        let line = self.read_line()?;
        let mut it = line.split(' ').skip(1).map(str::parse::<f64>);
        match (it.next(), it.next()) {
            (Some(Ok(u)), Some(Ok(s))) => Ok((u, s)),
            _ => Err(format!("serving child said {line:?}, expected cpu")),
        }
    }

    /// Stops the child, waits for it to exit, and returns its report.
    ///
    /// # Errors
    ///
    /// A child that dies or reports garbage.
    pub fn stop(mut self) -> Result<Done, String> {
        self.send("stop")?;
        let line = self.read_line()?;
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if !status.success() {
            return Err(format!("serving child exited with {status}"));
        }
        let fields: Vec<&str> = line.split(' ').collect();
        let num = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
        if fields.first() != Some(&"done") {
            return Err(format!("serving child said {line:?}, expected done"));
        }
        Ok(Done {
            max_rss_kb: num(1).ok_or("missing rss")?,
            hx_match: num(2).map(|v| v == 1),
            ids_digest: num(3).unwrap_or(0),
            live: num(4).unwrap_or(0) as usize,
        })
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // After `stop` the child has been reaped and these are no-ops;
        // on an error path they make sure no child outlives the run.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
