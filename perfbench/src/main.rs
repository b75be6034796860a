//! `perfbench --workload <compile|edit|run|serve> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a provenance line, then — as the last line of standard output —
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! A failed output check shows as `"correct": false` (and on standard
//! error); the exit code is non-zero only for a usage error.

use nml_perfbench::{Opts, Outcome, WORKLOADS};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let parsed = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                Ok(())
            }
            "--seed" => value
                .parse()
                .map(|v| opts.seed = v)
                .map_err(|e| e.to_string()),
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 && v.is_finite() => {
                    opts.seconds = v;
                    Ok(())
                }
                _ => Err("must be a positive number".to_owned()),
            },
            "--trace" => match value.as_str() {
                "0" => Ok(()),
                "1" => {
                    opts.trace = true;
                    Ok(())
                }
                _ => Err("must be 0 or 1".to_owned()),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if let Err(e) = parsed {
            return usage(&format!("{flag} {value}: {e}"));
        }
    }
    let out: Outcome = match workload.as_deref() {
        Some("compile") => nml_perfbench::compile::workload(&opts),
        Some("edit") => nml_perfbench::edit::workload(&opts),
        Some("run") => nml_perfbench::run::workload(&opts),
        Some("serve") => nml_perfbench::serve::workload(&opts),
        Some(other) => return usage(&format!("unknown workload {other}")),
        None => return usage("--workload is required"),
    };
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{}", out.provenance_json());
    println!("{}", out.result_json());
    ExitCode::SUCCESS
}
