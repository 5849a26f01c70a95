//! Command-line entry point:
//!
//! ```text
//! erbench --workload <paper-olap|entity-oltp|ingest-checkpoint> --seed <n>
//!         --seconds <s> --trace <0|1> [--scale tiny]
//! ```
//!
//! Human-readable context goes to stderr; the last line of stdout is the
//! JSON result.

use erbench::{Options, Scale};

fn parse() -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if opts.seconds.is_nan() || opts.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--scale" => {
                opts.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err("--scale takes full or tiny".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opts)
}

fn main() {
    let report = parse().and_then(|opts| erbench::run(&opts));
    match report {
        Ok(report) => {
            for line in &report.notes {
                eprintln!("{line}");
            }
            for (name, value, unit) in &report.metrics {
                eprintln!("  {name:<44} {value:>16.4} {unit}");
            }
            println!("{}", report.to_json());
        }
        Err(e) => {
            eprintln!("erbench: {e}");
            std::process::exit(2);
        }
    }
}
