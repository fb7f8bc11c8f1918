//! The repo's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--quick]
//! benchmark compare A.json B.json
//! ```

mod compare;
mod gate;
mod gen;
mod hist;
mod json;
mod ladder;
mod run;
mod sys;
mod workload;

use std::path::Path;

const USAGE: &str =
    "usage: benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--quick]
       benchmark compare A.json B.json";

fn parse_run(args: &[String]) -> Result<run::Opts, String> {
    let mut opts = run::Opts {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: None,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            opts.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => opts.workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds >= 1.0 && opts.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

fn cmd_run(args: &[String]) -> i32 {
    let opts = match parse_run(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build: run with --release");
        return 2;
    }
    if sys::nproc() < workload::CLIENTS {
        eprintln!(
            "refusing to run {} clients on {} CPU(s)",
            workload::CLIENTS,
            sys::nproc()
        );
        return 2;
    }
    // The system is measured as shipped: nothing in the environment may
    // change what `StmConfig::new` returns. Still single-threaded here.
    for var in ["TM_STM_TRACE", "TM_STM_CHAOS", "TM_STM_DRIVER"] {
        std::env::remove_var(var);
    }
    if std::env::var(sys::TUNABLES_VAR).as_deref() != Ok(sys::TUNABLES) {
        return rerun_with_tunables(args);
    }
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    match run::run(&opts, &out_dir) {
        Ok(outcome) => {
            if let Some(line) = &outcome.driver_line {
                println!("{}", line.compact());
            }
            i32::from(!outcome.pass)
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            2
        }
    }
}

/// glibc reads its tunables once, at process start, so the measured
/// process is a child of this one. Its output is this process's output.
fn rerun_with_tunables(args: &[String]) -> i32 {
    let child = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .arg("run")
            .args(args)
            .env(sys::TUNABLES_VAR, sys::TUNABLES)
            .status()
    });
    match child {
        Ok(status) => status.code().unwrap_or(2),
        Err(e) => {
            eprintln!(
                "cannot restart with {}={}: {e}",
                sys::TUNABLES_VAR,
                sys::TUNABLES
            );
            2
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare::cmd(rest),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}
