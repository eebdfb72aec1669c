//! `pckpt` — command-line driver for the C/R simulation suite.
//!
//! ```text
//! pckpt simulate --app XGC --model P2 [--runs 400] [--seed 42]
//!                [--dist titan|lanl8|lanl18] [--lead-scale 1.0]
//!                [--fn-rate 0.15] [--alpha 3.0]
//! pckpt compare  --app XGC [options as above]     # all five models
//! pckpt leads                                     # lead-time model
//! pckpt io --app CHIMERA                          # derived latencies
//! pckpt apps                                      # Table I
//! ```

use std::process::ExitCode;

use pckpt_core::Settings;

mod args;
mod commands;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(cmd) => match Settings::from_env().and_then(|s| commands::run(cmd, &s)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::USAGE);
            ExitCode::FAILURE
        }
    }
}
