//! Shared experiment plumbing: argument parsing, result persistence.

use serde::Serialize;
use std::path::{Path, PathBuf};

/// Common experiment arguments (parsed from `std::env::args`).
#[derive(Clone, Debug)]
pub struct Args {
    /// Master seed (`--seed N`), default 42.
    pub seed: u64,
    /// Geometry scale divisor for detailed sims (`--scale N`), default 8.
    pub scale: u64,
    /// Quick mode (`--quick`): shrink budgets ~10× for smoke runs.
    pub quick: bool,
    /// Shared-DNUCA chain depth override (`--chain N`).
    pub chain: Option<usize>,
    /// Number of independent seeds for statistics (`--seeds N`, default 1).
    pub seeds: u64,
    /// Core-count sweep override for scalability runs
    /// (`--cores 8,16,32`). `None` = the experiment's default ladder.
    pub cores: Option<Vec<usize>>,
    /// Regression-gate mode (`--check`): compare against the committed
    /// baseline and exit non-zero on a regression.
    pub check: bool,
}

impl Args {
    /// Parse from the process arguments.
    pub fn parse() -> Args {
        let mut args = Args {
            seed: 42,
            scale: 8,
            quick: false,
            chain: None,
            seeds: 1,
            cores: None,
            check: false,
        };
        let argv: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < argv.len() {
            match argv[i].as_str() {
                "--seed" => {
                    i += 1;
                    args.seed = argv[i].parse().expect("--seed takes an integer");
                }
                "--scale" => {
                    i += 1;
                    args.scale = argv[i].parse().expect("--scale takes an integer");
                }
                "--quick" => args.quick = true,
                "--chain" => {
                    i += 1;
                    args.chain = Some(argv[i].parse().expect("--chain takes an integer"));
                }
                "--seeds" => {
                    i += 1;
                    args.seeds = argv[i].parse().expect("--seeds takes an integer");
                    assert!(args.seeds >= 1, "--seeds must be at least 1");
                }
                "--cores" => {
                    i += 1;
                    let list: Vec<usize> = argv[i]
                        .split(',')
                        .map(|c| c.parse().expect("--cores takes a comma-separated list"))
                        .collect();
                    assert!(!list.is_empty(), "--cores needs at least one core count");
                    args.cores = Some(list);
                }
                "--check" => args.check = true,
                other => panic!("unknown argument {other}"),
            }
            i += 1;
        }
        args
    }

    /// The one command that re-runs this invocation's seed, in `--quick`
    /// mode when it was set, from the repository root (`bap-bench` is not
    /// a default workspace member, hence `-p`).
    pub fn repro_command(&self, bin: &str) -> String {
        let quick = if self.quick { " --quick" } else { "" };
        format!(
            "cargo run --release -p bap-bench --bin {bin} -- --seed {}{quick}",
            self.seed
        )
    }
}

/// The `results/` directory at the root of the workspace the binary runs
/// in (created on demand). The root is resolved at run time, so a copy of
/// the tree that reuses a copied `target/` writes into its own `results/`.
pub fn results_dir() -> PathBuf {
    let cwd = std::env::current_dir().expect("a working directory");
    let dir = workspace_root(&cwd).unwrap_or(cwd).join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// The nearest ancestor of `dir` (itself included) whose `Cargo.toml`
/// declares `[workspace]`. Cargo runs binaries from where it is invoked
/// and tests from the package root, so both find the workspace root.
fn workspace_root(dir: &Path) -> Option<PathBuf> {
    dir.ancestors()
        .find(|d| {
            std::fs::read_to_string(d.join("Cargo.toml"))
                .is_ok_and(|toml| toml.lines().any(|l| l.trim() == "[workspace]"))
        })
        .map(Path::to_path_buf)
}

/// Persist an experiment result as pretty JSON under `results/`.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> PathBuf {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialisable");
    std::fs::write(&path, json).expect("write results file");
    path
}

/// Load a previously written result, if present.
pub fn read_json<T: serde::de::DeserializeOwned>(name: &str) -> Option<T> {
    let path = results_dir().join(format!("{name}.json"));
    let data = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&data).ok()
}

/// Render one row of a fixed-width table.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_workspace_root_is_the_nearest_ancestor_declaring_a_workspace() {
        // Cargo runs this test from the package root, `crates/bench`.
        let cwd = std::env::current_dir().expect("a working directory");
        let root = workspace_root(&cwd).expect("inside the workspace");
        assert!(root.join("crates/bench/Cargo.toml").is_file(), "{root:?}");

        // A copied tree resolves to its own root, whatever built it; a
        // package manifest that only inherits workspace keys is no root.
        let copy = std::env::temp_dir().join(format!("bap_ws_root_{}", std::process::id()));
        let src = copy.join("crates/pkg/src");
        std::fs::create_dir_all(&src).expect("temp tree");
        std::fs::write(
            copy.join("Cargo.toml"),
            "[workspace]\nmembers = [\"crates/*\"]\n",
        )
        .expect("root manifest");
        std::fs::write(
            copy.join("crates/pkg/Cargo.toml"),
            "[package]\nname = \"pkg\"\nversion.workspace = true\n",
        )
        .expect("package manifest");
        assert_eq!(workspace_root(&src), Some(copy.clone()));
        std::fs::remove_dir_all(&copy).ok();
    }
}
