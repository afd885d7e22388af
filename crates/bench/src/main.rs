//! The one door for measuring: regenerate one experiment's section, or
//! the whole of EXPERIMENTS.md, on stdout.
//!
//! ```sh
//! cargo run --release -p fanstore-bench -- <name | all | list> [--quick]
//! cargo run --release -p fanstore-bench -- all > EXPERIMENTS.md
//! ```
//!
//! `--quick` is the smoke shape of every experiment (what CI runs);
//! without it the sizes are the ones EXPERIMENTS.md is generated with.

use std::process::ExitCode;

use fanstore_bench::experiments::{all, EXPERIMENTS};

/// `name  description`, one experiment per line.
fn list() -> String {
    EXPERIMENTS.iter().map(|(name, what, _)| format!("{name:<18}{what}\n")).collect()
}

/// The report the arguments ask for; an unknown or missing name is an
/// `Err` that names every experiment.
fn run(args: &[String]) -> Result<String, String> {
    let quick = args.iter().any(|a| a == "--quick");
    let wanted: Vec<&str> = args.iter().map(String::as_str).filter(|a| *a != "--quick").collect();
    match wanted[..] {
        ["all"] => Ok(all(quick)),
        ["list"] => Ok(list()),
        [name] => match EXPERIMENTS.iter().find(|(n, ..)| *n == name) {
            Some((_, _, experiment)) => Ok(experiment(quick)),
            None => Err(format!("unknown experiment `{name}`; the experiments are:\n{}", list())),
        },
        _ => Err(format!("usage: fanstore-bench <name | all | list> [--quick]\n{}", list())),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprint!("fanstore-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unknown_experiment_is_answered_with_the_names() {
        let err = run(&["fig0".to_string(), "--quick".to_string()]).unwrap_err();
        assert!(err.contains("fig0"), "{err}");
        for (name, ..) in EXPERIMENTS {
            assert!(err.lines().any(|l| l.starts_with(name)), "{name} missing from: {err}");
        }
        assert!(run(&[]).is_err(), "no experiment named");
    }

    /// ROADMAP item 5 (f): one door for running (`fanstore`), one for
    /// measuring (this one), and no `[[bench]]` target. A third fails here.
    #[test]
    fn the_workspace_has_two_binaries_and_no_bench_target() {
        let out = std::process::Command::new(env!("CARGO"))
            .args(["metadata", "--offline", "--no-deps", "--format-version", "1"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .expect("cargo metadata runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let meta = fanstore::metrics::json::parse(&String::from_utf8_lossy(&out.stdout))
            .expect("cargo metadata prints JSON");
        let list = |v: &fanstore::metrics::json::Value, key: &str| {
            v.get(key)
                .and_then(|l| l.as_arr())
                .unwrap_or_else(|| panic!("no `{key}` list"))
                .to_vec()
        };
        let mut doors = Vec::new();
        for package in list(&meta, "packages") {
            for target in list(&package, "targets") {
                let name = target.get("name").and_then(|n| n.as_str()).expect("target name");
                for kind in list(&target, "kind") {
                    if let Some(kind @ ("bin" | "bench")) = kind.as_str() {
                        doors.push(format!("{kind} {name}"));
                    }
                }
            }
        }
        doors.sort();
        assert_eq!(doors, ["bin fanstore", "bin fanstore-bench"]);
    }

    #[test]
    fn a_known_name_runs_that_experiment() {
        let report = run(&["table5".to_string()]).unwrap();
        assert!(report.starts_with("## Table V"), "{report}");
        assert_eq!(run(&["list".to_string()]).unwrap().lines().count(), EXPERIMENTS.len());
    }
}
