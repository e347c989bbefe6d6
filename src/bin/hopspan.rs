//! The `hopspan` command-line tool: build bounded hop-diameter spanners
//! for point sets, query k-hop paths, and inspect sizes — from CSV files.
//!
//! ```text
//! hopspan generate --n 200 --dim 2 --seed 7 --out points.csv
//! hopspan build    --points points.csv --k 2 --eps 0.5 --out spanner.csv
//! hopspan query    --points points.csv --k 2 --eps 0.5 --from 0 --to 17
//! hopspan stats    --points points.csv --k 3 --eps 0.5
//! ```

use std::fmt::Write as _;
use std::process::ExitCode;

use hopspan::core::MetricNavigator;
use hopspan::metric::{gen, path_weight, EuclideanSpace, Metric};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    "usage:\n  \
     hopspan generate --n <count> [--dim 2] [--seed 0] [--clusters 0] --out <points.csv>\n  \
     hopspan build    --points <csv> [--k 2] [--eps 0.5] --out <spanner.csv>\n  \
     hopspan query    --points <csv> [--k 2] [--eps 0.5] --from <id> --to <id>\n  \
     hopspan stats    --points <csv> [--k 2] [--eps 0.5]\n\n\
     points.csv: one point per line, comma-separated coordinates.\n\
     spanner.csv: one edge per line as `u,v,weight`."
}

fn run(args: &[String]) -> Result<String, String> {
    let cmd = args.first().ok_or("missing subcommand")?;
    let opts = Options::parse(&args[1..])?;
    match cmd.as_str() {
        "generate" => generate(&opts),
        "build" => build(&opts),
        "query" => query(&opts),
        "stats" => stats(&opts),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

/// Parsed `--key value` options.
struct Options {
    entries: Vec<(String, String)>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut entries = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected `--option`, got `{key}`"))?;
            let value = it
                .next()
                .ok_or_else(|| format!("missing value for --{key}"))?;
            entries.push((key.to_string(), value.clone()));
        }
        Ok(Options { entries })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid --{key}: `{v}`")),
        }
    }
}

fn generate(opts: &Options) -> Result<String, String> {
    let n: usize = opts.num("n", 0)?;
    if n == 0 {
        return Err("--n must be positive".into());
    }
    let dim: usize = opts.num("dim", 2)?;
    let seed: u64 = opts.num("seed", 0)?;
    let clusters: usize = opts.num("clusters", 0)?;
    let out = opts.required("out")?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let pts = if clusters > 0 {
        gen::clustered_points(n, dim, clusters, 0.05, &mut rng)
    } else {
        gen::uniform_points(n, dim, &mut rng)
    };
    let mut csv = String::new();
    for i in 0..pts.len() {
        let row: Vec<String> = pts.point(i).iter().map(|c| format!("{c}")).collect();
        writeln!(csv, "{}", row.join(",")).expect("string write");
    }
    std::fs::write(out, csv).map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(format!("wrote {n} points ({dim}-d) to {out}\n"))
}

fn load_points(opts: &Options) -> Result<EuclideanSpace, String> {
    let path = opts.required("points")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_points(&text)
}

fn parse_points(text: &str) -> Result<EuclideanSpace, String> {
    let mut pts: Vec<Vec<f64>> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let coords: Result<Vec<f64>, _> = line.split(',').map(|c| c.trim().parse()).collect();
        let coords = coords.map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if let Some(first) = pts.first() {
            if coords.len() != first.len() {
                return Err(format!("line {}: inconsistent dimension", lineno + 1));
            }
        }
        pts.push(coords);
    }
    if pts.is_empty() {
        return Err("no points found".into());
    }
    Ok(EuclideanSpace::from_points(&pts))
}

fn navigator(opts: &Options, pts: &EuclideanSpace) -> Result<MetricNavigator, String> {
    let k: usize = opts.num("k", 2)?;
    let eps: f64 = opts.num("eps", 0.5)?;
    MetricNavigator::doubling(pts, eps, k).map_err(|e| e.to_string())
}

fn build(opts: &Options) -> Result<String, String> {
    let pts = load_points(opts)?;
    let out = opts.required("out")?;
    let nav = navigator(opts, &pts)?;
    let mut csv = String::new();
    for &(u, v, w) in nav.spanner_edges() {
        writeln!(csv, "{u},{v},{w}").expect("string write");
    }
    std::fs::write(out, csv).map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(format!(
        "spanner: {} points, k = {}, {} edges ({} trees) -> {out}\n",
        pts.len(),
        nav.k(),
        nav.spanner_edge_count(),
        nav.tree_count(),
    ))
}

fn query(opts: &Options) -> Result<String, String> {
    let pts = load_points(opts)?;
    let from: usize = opts.num("from", usize::MAX)?;
    let to: usize = opts.num("to", usize::MAX)?;
    if from >= pts.len() || to >= pts.len() {
        return Err("--from/--to out of range".into());
    }
    let nav = navigator(opts, &pts)?;
    let path = nav.find_path(from, to).map_err(|e| e.to_string())?;
    let weight = path_weight(&pts, &path);
    Ok(format!(
        "path: {path:?}\nhops: {} (k = {})\nweight: {weight:.6}\ndirect: {:.6}\nstretch: {:.4}\n",
        path.len() - 1,
        nav.k(),
        pts.dist(from, to),
        if pts.dist(from, to) > 0.0 {
            weight / pts.dist(from, to)
        } else {
            1.0
        },
    ))
}

fn stats(opts: &Options) -> Result<String, String> {
    let pts = load_points(opts)?;
    let nav = navigator(opts, &pts)?;
    let n = pts.len();
    let complete = n * (n - 1) / 2;
    // Sampled stretch.
    let mut worst: f64 = 1.0;
    for i in 0..n {
        let (u, v) = (i, (i * 13 + 7) % n);
        if u == v {
            continue;
        }
        let path = nav.find_path(u, v).map_err(|e| e.to_string())?;
        let d = pts.dist(u, v);
        if d > 0.0 {
            worst = worst.max(path_weight(&pts, &path) / d);
        }
    }
    Ok(format!(
        "points:        {n}\n\
         k (hops):      {}\n\
         cover trees:   {}\n\
         spanner edges: {} ({:.1}% of complete)\n\
         sampled max stretch: {worst:.4}\n",
        nav.k(),
        nav.tree_count(),
        nav.spanner_edge_count(),
        100.0 * nav.spanner_edge_count() as f64 / complete as f64,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_points() {
        let pts = parse_points("0,0\n1 , 2\n# comment\n\n3,4\n").unwrap();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts.point(1), &[1.0, 2.0]);
    }

    #[test]
    fn rejects_bad_points() {
        assert!(parse_points("").is_err());
        assert!(parse_points("1,2\n3\n").is_err());
        assert!(parse_points("a,b\n").is_err());
    }

    #[test]
    fn options_parse() {
        let args: Vec<String> = ["--n", "5", "--out", "x.csv"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = Options::parse(&args).unwrap();
        assert_eq!(o.num("n", 0usize).unwrap(), 5);
        assert_eq!(o.required("out").unwrap(), "x.csv");
        assert!(o.required("missing").is_err());
        assert!(Options::parse(&["--key".to_string()]).is_err());
        assert!(Options::parse(&["key".to_string(), "v".to_string()]).is_err());
    }

    #[test]
    fn end_to_end_via_tmpfiles() {
        let dir = std::env::temp_dir().join("hopspan_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let pts = dir.join("p.csv");
        let span = dir.join("s.csv");
        let a = |s: &str| s.to_string();
        run(&[
            a("generate"),
            a("--n"),
            a("30"),
            a("--seed"),
            a("3"),
            a("--out"),
            a(pts.to_str().unwrap()),
        ])
        .unwrap();
        let out = run(&[
            a("build"),
            a("--points"),
            a(pts.to_str().unwrap()),
            a("--k"),
            a("2"),
            a("--eps"),
            a("0.5"),
            a("--out"),
            a(span.to_str().unwrap()),
        ])
        .unwrap();
        assert!(out.contains("spanner: 30 points"));
        let q = run(&[
            a("query"),
            a("--points"),
            a(pts.to_str().unwrap()),
            a("--from"),
            a("0"),
            a("--to"),
            a("29"),
        ])
        .unwrap();
        assert!(q.contains("hops:"));
        let s = run(&[a("stats"), a("--points"), a(pts.to_str().unwrap())]).unwrap();
        assert!(s.contains("spanner edges"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
