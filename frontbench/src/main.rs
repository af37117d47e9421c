//! `qtda-frontbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a metadata line and, as the last line of standard output, the
//! result object. Exits 2 on a usage error and 1 when set-up or the
//! correctness gate fails, printing no metrics then.

use qtda_frontbench::args::{Args, USAGE};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("qtda-frontbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match qtda_frontbench::run::run(&args) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("qtda-frontbench: {e}");
            ExitCode::from(1)
        }
    }
}
