//! Command-line parsing.

use crate::inputs::Workload;

/// What the process was asked to do.
#[derive(Debug, Clone)]
pub enum Command {
    /// Run one benchmark workload as the client.
    Run(RunArgs),
    /// Serve one workload's inputs as the child process (internal).
    Serve {
        /// The workload whose engine to build.
        workload: Workload,
        /// The input file written by the client.
        input: String,
    },
}

/// Arguments of a benchmark run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: u64,
    /// Whether this is the traced per-layer run.
    pub trace: bool,
}

/// Parses `argv[1..]`.
///
/// # Errors
///
/// A usage message for missing, unknown or malformed arguments.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let (serve, rest) = match args.first().map(String::as_str) {
        Some("serve") => (true, &args[1..]),
        _ => (false, args),
    };
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut input = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=120).contains(&s) {
                    return Err("--seconds must be within 1..=120".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            "--input" => input = Some(value.to_string()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if serve {
        return Ok(Command::Serve {
            workload,
            input: input.ok_or("missing --input")?,
        });
    }
    Ok(Command::Run(RunArgs {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    }))
}

/// The usage line printed on argument errors.
pub const USAGE: &str = "usage: hopbench --workload <read-uniform|mixed-ft|churn> \
--seed <n> --seconds <s> --trace <0|1>";
