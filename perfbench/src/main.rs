//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when any
//! output check failed and 2 on a usage error.

use perfbench::workload::Workload;
use perfbench::{Fault, Options};

const USAGE: &str = "usage: perfbench --workload <zipf_reuse|cold_udf> \
--seed <n> --seconds <s> --trace <0|1> [--requests <per-client-round>] [--rounds <n>] \
[--fault <body|stage>]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::ZipfReuse,
        seed: 1,
        seconds: 30,
        trace: false,
        requests: None,
        rounds: None,
        fault: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let int = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => opts.seed = int()?,
            "--seconds" => opts.seconds = int()?.max(1),
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--requests" => opts.requests = Some(int()?.max(1) as usize),
            "--rounds" => opts.rounds = Some(int()?.max(1) as usize),
            "--fault" => {
                opts.fault = Some(match value.as_str() {
                    "body" => Fault::Body,
                    "stage" => Fault::Stage,
                    _ => return Err("--fault takes body or stage".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = perfbench::run(&opts);
    for note in &report.notes {
        println!("{note}");
    }
    println!("{}", report.json());
    if !report.correct {
        std::process::exit(1);
    }
}
