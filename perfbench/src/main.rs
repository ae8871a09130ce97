//! `perfbench --workload <web|mail|db> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for at least `--seconds` and prints, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Notes go to standard error. A traced
//! run also writes the spans of its first traced round to
//! `perfbench/traces/<workload>-seed<n>.tsv`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::{db, mail, run, web, Report};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?,
            "--trace" => args.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let report: Report = match args.workload.as_str() {
        "web" => run::<web::Web>(&web::Config::new(args.seed), budget, args.trace),
        "mail" => run::<mail::Mail>(&mail::Config::new(args.seed), budget, args.trace),
        "db" => run::<db::Db>(&db::Config::new(args.seed), budget, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (web, mail, db)");
            return ExitCode::from(2);
        }
    };
    for note in &report.notes {
        eprintln!("perfbench {}: {note}", args.workload);
    }
    if args.trace {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces");
        let file = dir.join(format!("{}-seed{}.tsv", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&file, perfbench::trace::to_tsv(&report.spans)))
        {
            eprintln!("perfbench: writing {}: {e}", file.display());
        }
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
