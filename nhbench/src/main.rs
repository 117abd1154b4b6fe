//! `nhbench`: runs one repetition of one benchmark workload in this
//! process and prints its raw measurements as one JSON line.
//!
//! ```text
//! nhbench rep --workload <name> [--seed <n>] [--mode plain|warmup|traced] [--out <dir>]
//! nhbench spec --workload <name> [--seed <n>]
//! ```
//!
//! `run.py` next to this package starts one fresh process per repetition
//! (the FEM α cache and the telemetry registry are process-global), turns
//! the raw numbers into metrics and checks correctness.

mod measure;
mod timing;
mod workloads;

use std::path::PathBuf;

use neurohammer::campaign::json::Json;

fn usage() -> ! {
    eprintln!(
        "usage: nhbench rep --workload <{}> [--seed <n>] [--mode plain|warmup|traced] [--out <dir>]\n\
         \x20      nhbench spec --workload <name> [--seed <n>]",
        workloads::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let workload = flag("--workload").unwrap_or_else(|| usage());
    let seed: u64 = match flag("--seed") {
        None => workloads::DEFAULT_SEED,
        Some(seed) => seed.parse().unwrap_or_else(|_| usage()),
    };
    let Some(spec) = workloads::spec(&workload, seed) else {
        usage()
    };
    match command.as_str() {
        "spec" => println!("{}", spec.to_json()),
        "rep" => {
            let mode = match flag("--mode").as_deref() {
                None | Some("plain") => measure::Mode::Plain,
                Some("warmup") => measure::Mode::Warmup,
                Some("traced") => measure::Mode::Traced,
                Some(_) => usage(),
            };
            let out = PathBuf::from(flag("--out").unwrap_or_else(|| ".".into()));
            match measure::repetition(&workload, spec, mode, &out) {
                Ok(fields) => println!("{}", Json::Object(fields).to_compact_string()),
                Err(error) => {
                    eprintln!("nhbench: {workload}: {error}");
                    std::process::exit(1);
                }
            }
        }
        _ => usage(),
    }
}
