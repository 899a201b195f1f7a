//! `simbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload of the simulator benchmark and prints, as its last
//! line, `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics untraced, the per-layer metrics traced. A traced run also
//! writes its spans, one JSON object per line, to
//! `simbench/trace/<workload>-seed<N>.jsonl`.

use dvmc_simbench::cells::{Size, Workload, DEFAULT_SEED};
use dvmc_simbench::{run, Options};

fn usage(msg: &str) -> ! {
    eprintln!("simbench: {msg}");
    eprintln!(
        "usage: simbench --workload paper_closed|service_quiet|service_storm [--seed N] \
         [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2)
}

fn parse_args() -> Options {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::PaperClosed,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::FULL,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let (key, inline) = match arg.split_once('=') {
            Some((k, v)) => (k.to_string(), Some(v.to_string())),
            None => (arg.clone(), None),
        };
        let value = inline
            .or_else(|| args.next())
            .unwrap_or_else(|| usage(&format!("{key} needs a value")));
        let bad = || -> ! { usage(&format!("bad value for {key}: {value}")) };
        match key.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).unwrap_or_else(|| bad())),
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => {
                opts.seconds = value.parse().unwrap_or_else(|_| bad());
                if !opts.seconds.is_finite() || opts.seconds < 0.0 {
                    bad();
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            _ => usage(&format!("unknown argument {key}")),
        }
    }
    opts.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    opts
}

fn main() {
    let opts = parse_args();
    let outcome = run(&opts);
    for line in &outcome.lines {
        println!("{line}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<28} {value:>18.6} {unit}");
    }
    if opts.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("trace");
        let path = dir.join(format!("{}-seed{}.jsonl", opts.workload.name(), opts.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, outcome.spans_jsonl()));
        match written {
            Ok(()) => println!(
                "spans: {} written to {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("simbench: could not write {}: {e}", path.display()),
        }
    }
    println!("{}", outcome.json());
}
