//! The repository benchmark: secure inference timed end to end and layer
//! by layer.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm_mnist_mlp_c --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The workload's inputs come from `--seed`. With `--trace 0` the run
//! reports the end-to-end metrics; with `--trace 1` it records spans around
//! every layer call on every other request and reports the per-layer
//! metrics, including the tracing overhead. Every output is checked; any
//! wrong output or traced layer sum that does not reconcile makes the run
//! exit 1. The last stdout line is the result as one JSON object; the line
//! before it stamps host, toolchain, commit and seed. Results and the
//! Chrome trace are also written under `perfbench/out/`.

mod pair;
mod probes;
mod serving;
mod stats;
mod trace;
mod transport;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use workloads::{Outcome, WORKLOADS};

/// End-to-end metrics and units, as `BENCHMARK.json` lists them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("inference_p50_s", "s"),
    ("inference_p90_s", "s"),
    ("throughput_inf_per_s", "1/s"),
    ("wire_bytes_per_inference", "B"),
    ("cpu_s_per_inference", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and units, as `BENCHMARK.json` lists them.
const PER_LAYER: &[(&str, &str)] = &[
    ("demo.load_s", "s"),
    ("serve.pool_warm_s", "s"),
    ("bigint.modexp_ms", "ms"),
    ("ot.base.sender_precomp_s", "s"),
    ("core.session.client_setup_s", "s"),
    ("core.session.server_setup_s", "s"),
    ("core.session.reported_ot_setup_s", "s"),
    ("core.session.setup_accounting_gap_s", "s"),
    ("core.session.client_online_s", "s"),
    ("core.session.server_online_s", "s"),
    ("crypto.aes_mblocks_per_s", "Mblock/s"),
    ("garble.garble_mgates_per_s", "Mgate/s"),
    ("garble.eval_mgates_per_s", "Mgate/s"),
    ("ot.ext.ots_per_s", "1/s"),
    ("ot.tcp.loopback_mb_per_s", "MB/s"),
    ("transport.turnarounds_per_inference", "count"),
    ("transport.client_recv_wait_s", "s"),
    ("transport.server_recv_wait_s", "s"),
    ("transport.bytes_up", "B"),
    ("transport.bytes_down", "B"),
    ("transport.predicted_wan_s", "s"),
    ("circuit.non_free_gates", "count"),
    ("circuit.table_bytes", "B"),
    ("serve.connect_s", "s"),
    ("serve.query_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.generator_lag_s", "s"),
    ("serve.pool_material_hit_ratio", "ratio"),
    ("serve.queue_depth_max", "count"),
    ("serve.sessions_failed", "count"),
    ("trace.untraced_p50_s", "s"),
    ("trace.traced_p50_s", "s"),
    ("trace.overhead_share", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} has no value", pair[0]));
        };
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad(&format!("expected one of {}", WORKLOADS.join(", ")))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// Output of a command run to completion, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Host, toolchain, commit and seed of this result.
fn stamp(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Outside a git checkout (the benchmark may run from an export) the
    // commit is unknown rather than some enclosing repository's.
    let commit = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"cpu\":{},\"nproc\":{},\"rustc\":{},\"commit\":{}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&cpu_model()),
        nproc,
        json_str(&command_line("rustc", &["-V"])),
        json_str(&commit),
    )
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out: Outcome = match args.workload.as_str() {
        "oneshot_tiny_mlp" => workloads::oneshot(args.seed, args.seconds, args.trace),
        "warm_mnist_mlp_c" => workloads::warm(args.seed, args.seconds, args.trace),
        _ => workloads::serve(args.seed, args.seconds, args.trace),
    };
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut problems = out.problems.clone();
    let mut metrics = Vec::new();
    for (name, unit) in wanted {
        match out.metrics.get(name) {
            Some(v) if v.is_finite() => metrics.push(format!(
                "{}:{{\"value\":{v},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            )),
            _ => problems.push(format!("metric {name} was not measured")),
        }
    }
    for p in &problems {
        eprintln!("perfbench: {p}");
    }
    let correct = problems.is_empty() && out.failed == 0;
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
    let stamp = stamp(&args);
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    let name = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let file = format!("{{\"stamp\":{stamp},\"error_rate\":{error_rate},\"result\":{result}}}\n");
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(out_dir().join(format!("{name}.json")), file));
    if let Err(e) = written {
        eprintln!("perfbench: could not write the result file: {e}");
    }
    if args.trace {
        if let Err(e) = trace::write_chrome(&out_dir().join(format!("{name}.trace.json"))) {
            eprintln!("perfbench: could not write the trace: {e}");
        }
    }
    println!("{stamp}");
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert_eq!(spec.matches(&entry).count(), 1, "{entry}");
        }
        assert_eq!(
            spec.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
        for w in WORKLOADS {
            assert!(
                spec.contains(&format!("{{\"name\": \"{w}\", \"why\"")),
                "{w}"
            );
        }
    }
}
