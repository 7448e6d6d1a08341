//! `rescc-perfbench --workload <steady|churn|chaos|all> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints the run's host metadata and notes, then, as its last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. Exits
//! non-zero when any correctness check fails. `all` runs each workload in
//! turn, each printing its own lines.

use rescc_perfbench::{result_json, run, Options, Scale, Workload};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!(
        "usage: rescc-perfbench --workload <steady|churn|chaos|all> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

/// The checkout's commit, read from `.git` in the working directory
/// ("unknown" outside a git checkout).
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| r.to_string()),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(name), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    if name == "all" {
        return run_all(seed, seconds, trace);
    }
    let Some(workload) = Workload::parse(&name) else {
        return usage(&format!("unknown workload {name}"));
    };

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let out = run(&Options {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
    });
    println!(
        "{{\"meta\": {{\"workload\": \"{name}\", \"seed\": {seed}, \"trace\": {trace}, \"nproc\": {nproc}, \
         \"profile\": \"{profile}\", \"commit\": \"{}\", \"pid\": {}, \"client_threads\": 1, \
         \"compile_threads\": 1, \"epochs\": {}, \"calls_per_epoch\": {}, \
         \"stream_digest\": \"{:016x}\", \"tail_percentile\": {}}}}}",
        commit(),
        std::process::id(),
        out.epochs,
        out.tally.calls,
        out.stream_digest,
        out.tail_pct
    );
    for note in &out.notes {
        println!("# {note}");
    }
    println!(
        "{}",
        result_json(out.correct, out.attempted, out.failed, &out.metrics)
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: every workload in turn, each in a process of its own
/// so that its peak memory and allocator state are its own, exactly as in
/// a single-workload run. Each prints its own lines; the exit code fails
/// if any workload failed.
fn run_all(seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return usage(&format!("cannot locate this executable: {e}")),
    };
    let mut code = ExitCode::SUCCESS;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .status();
        if !status.is_ok_and(|s| s.success()) {
            code = ExitCode::FAILURE;
        }
    }
    code
}
