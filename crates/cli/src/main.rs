//! `fanstore <subcommand> [--flag value]...` — see [`fanstore_cli::COMMANDS`].

use std::process::ExitCode;

use fanstore_cli::{run, Args};

fn main() -> ExitCode {
    match Args::parse(std::env::args().skip(1)).and_then(|args| run(&args)) {
        Ok(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fanstore: {e}");
            ExitCode::FAILURE
        }
    }
}
