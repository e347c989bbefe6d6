//! The shared output path of the systems experiments (E22–E27): the
//! smoke switch, where `BENCH_<name>.json` goes, the JSON layout those
//! files share, and the nearest-rank quantile.

use std::fmt::Display;
use std::path::{Path, PathBuf};

/// Whether `HOPSPAN_SMOKE` asks for the reduced smoke sizes.
pub fn smoke() -> bool {
    std::env::var("HOPSPAN_SMOKE").is_ok()
}

/// The workspace root of the source tree this crate was built from.
pub fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
}

/// The file experiment `name` writes: `BENCH_<name>.json` inside `dir`,
/// or inside the workspace root when `dir` is `None`.
fn bench_path(dir: Option<&Path>, name: &str) -> PathBuf {
    dir.unwrap_or(workspace_root())
        .join(format!("BENCH_{name}.json"))
}

/// Writes `json` to `BENCH_<name>.json` in the directory named by
/// `HOPSPAN_BENCH_DIR` (default: the workspace root; created if
/// missing) and returns the markdown note that points at it.
pub fn write_bench(name: &str, json: &str) -> String {
    let dir = std::env::var_os("HOPSPAN_BENCH_DIR").map(PathBuf::from);
    let path = bench_path(dir.as_deref(), name);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, json));
    match written {
        // Only the file name: the absolute path would leak a
        // machine-local prefix into the committed EXPERIMENTS.md.
        Ok(()) => format!("Machine-readable results: `BENCH_{name}.json`."),
        Err(e) => format!("(could not write {}: {e})", path.display()),
    }
}

/// Nearest-rank quantile of ascending `sorted` samples: the smallest
/// sample with at least a `q` share of the samples at or below it.
/// 0 when there are no samples.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0;
    };
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(last)]
}

/// A JSON object of the `BENCH_*.json` layout, built as a field list.
/// Nested objects render on one line (`{"a": 1, "b": "x"}`); the
/// top-level [`Obj::document`] puts one field per line. Keys and string
/// values are plain identifiers and digests, written unescaped.
#[derive(Default)]
pub struct Obj(Vec<(&'static str, String)>);

impl Obj {
    /// The `experiment` / `seed` / `smoke` header every document opens with.
    pub fn header(experiment: &str, smoke: bool) -> Self {
        Obj::default()
            .str("experiment", experiment)
            .str("seed", format_args!("{:#x}", crate::SEED))
            .raw("smoke", smoke)
    }

    /// A value written as-is: integers, booleans, `null`.
    pub fn raw(mut self, key: &'static str, value: impl Display) -> Self {
        self.0.push((key, value.to_string()));
        self
    }

    /// A quoted string value.
    pub fn str(self, key: &'static str, value: impl Display) -> Self {
        self.raw(key, format_args!("\"{value}\""))
    }

    /// A float with `decimals` fractional digits.
    pub fn fixed(self, key: &'static str, value: f64, decimals: usize) -> Self {
        self.raw(key, format_args!("{value:.decimals$}"))
    }

    /// Like [`Obj::fixed`], with `null` for a missing value.
    pub fn fixed_or_null(self, key: &'static str, value: Option<f64>, decimals: usize) -> Self {
        match value {
            Some(v) => self.fixed(key, v, decimals),
            None => self.raw(key, "null"),
        }
    }

    /// A `u64` digest as a quoted, zero-padded `0x` hex string.
    pub fn hex(self, key: &'static str, value: u64) -> Self {
        self.str(key, format_args!("{value:#018x}"))
    }

    /// A nested object on one line.
    pub fn obj(self, key: &'static str, value: Obj) -> Self {
        self.raw(key, value.inline())
    }

    /// An array of one-line objects, one per line.
    pub fn rows(self, key: &'static str, rows: impl IntoIterator<Item = Obj>) -> Self {
        let mut body = String::new();
        for (i, row) in rows.into_iter().enumerate() {
            body.push_str(if i == 0 { "\n    " } else { ",\n    " });
            body.push_str(&row.inline());
        }
        self.raw(key, format_args!("[{body}\n  ]"))
    }

    fn inline(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The whole document, one top-level field per line.
    pub fn document(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_override_gives_each_experiment_its_own_file() {
        let dir = Path::new("bench-out");
        let query = bench_path(Some(dir), "query");
        let churn = bench_path(Some(dir), "churn");
        assert_eq!(query, dir.join("BENCH_query.json"));
        assert_eq!(churn, dir.join("BENCH_churn.json"));
        assert_ne!(query, churn);
        assert_eq!(
            bench_path(None, "store"),
            workspace_root().join("BENCH_store.json")
        );
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&xs, 0.0), 1);
        assert_eq!(quantile(&xs, 0.5), 50);
        assert_eq!(quantile(&xs, 0.99), 99);
        assert_eq!(quantile(&xs, 1.0), 100);
        assert_eq!(quantile(&[7], 0.99), 7);
        assert_eq!(quantile(&[], 0.5), 0);
    }
}
