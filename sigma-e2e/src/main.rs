//! `sigma-e2e --workload W --seed N --seconds S --trace 0|1` runs one
//! workload and prints its result as the last line of standard output;
//! `--repeat N` instead runs it N times in fresh child processes and
//! checks that every end-to-end metric repeats within its bound.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use sigma_e2e::gen::{Scale, Workload};
use sigma_e2e::report::{quartiles, spread, END_TO_END};
use sigma_e2e::run::{run, Budget, Config};

const USAGE: &str = "usage: sigma-e2e --workload <name> [--seed <n>] [--seconds <s>] \
[--trace 0|1] [--scale full|smoke] [--out <dir>] [--repeat <n>]
workloads: scenarios_cold scan_1m tab_edit_session wire_detail_pages augment_write_mix";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    out: PathBuf,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::ScenariosCold,
        seed: 1,
        seconds: 12.0,
        trace: false,
        scale: Scale::Full,
        out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results"),
        repeat: None,
    };
    let mut workload = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value == "1",
            "--scale" => {
                args.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = PathBuf::from(&value),
            "--repeat" => args.repeat = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// One metric value out of a child's result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let rest = &line[line.find(&format!("\"{name}\": {{\"value\": "))?..];
    let rest = &rest[rest.find("\"value\": ")? + 9..];
    rest[..rest.find(',')?].parse().ok()
}

/// The repeatability check: N fresh processes, consecutive seeds; a timed
/// metric whose quartiles lie further apart than its bound fails it.
fn repeat(args: &Args, n: usize) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut lines = Vec::new();
    for i in 0..n {
        let out = Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &(args.seed + i as u64).to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args([
                "--scale",
                if args.scale == Scale::Smoke {
                    "smoke"
                } else {
                    "full"
                },
            ])
            .arg("--out")
            .arg(&args.out)
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or("").to_string();
        if !out.status.success() || !line.contains("\"correct\": true") {
            return Err(format!("run {i} failed: {line}"));
        }
        eprintln!("run {i}: {line}");
        lines.push(line);
    }
    let mut steady = true;
    println!(
        "{} x{n}, seeds {}..{}",
        args.workload.name(),
        args.seed,
        args.seed + n as u64 - 1
    );
    for e in END_TO_END {
        let values: Vec<f64> = lines
            .iter()
            .filter_map(|l| metric_value(l, e.name))
            .collect();
        let [q1, q2, q3] = quartiles(&values);
        let (lo, hi) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
        let s = spread(&values);
        // `setup_s` is bounded on its median only, not on its spread.
        let ok = s <= e.bound || e.name == "setup_s";
        steady &= ok;
        println!(
            "{:<12} {:>4} median {q2:.4} quartiles [{q1:.4}, {q3:.4}] spread {:.2}% \
             max spread {:.2}% bound {:.0}% {}",
            e.name,
            e.unit,
            s * 100.0,
            (hi - lo) / q2 * 100.0,
            e.bound * 100.0,
            if ok { "ok" } else { "UNSTEADY" }
        );
    }
    Ok(steady)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.repeat {
        return match repeat(&args, n.max(2)) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let cfg = Config {
        workload: args.workload,
        seed: args.seed,
        budget: Budget::Seconds(args.seconds),
        scale: args.scale,
        trace: args.trace,
        setups: 3,
        wrong_reference: false,
        out_dir: Some(args.out),
    };
    match run(&cfg) {
        Ok(result) => {
            for (k, v) in &result.notes {
                eprintln!("{k}: {v}");
            }
            for m in &result.metrics {
                eprintln!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", result.line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sigma-e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
