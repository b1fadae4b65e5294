//! The concurrent secure-inference server.
//!
//! Hosts the garbling party for any number of simultaneous evaluator
//! clients. Heavy input-independent work — garbled tables, base-OT
//! keypair modexps — runs in a background precompute pool *before*
//! clients arrive, so each request pays only the online phase
//! (OT extension + table streaming + evaluation).
//!
//! ```sh
//! deepsecure_serve --listen 127.0.0.1:7710 --models tiny_mlp --pool 2
//! loadgen --connect 127.0.0.1:7710 --model tiny_mlp --clients 4 --requests 2 --check
//! ```

use std::process::ExitCode;

use deepsecure::analyze::{analyze, report};
use deepsecure::serve::demo;
use deepsecure::serve::metrics::MetricsServer;
use deepsecure::serve::server::{ServeConfig, Server};
use deepsecure::trace;

const USAGE: &str = "\
usage:
  deepsecure_serve --listen HOST:PORT [--models NAME[,NAME…]] [--pool N]
                   [--chunk-gates N] [--sessions N] [--seed S] [--threads N]
                   [--queue-cap N] [--model-session-cap N]
                   [--live-session-cap N] [--retry-after-ms MS]
                   [--metrics-addr HOST:PORT] [--trace-out FILE]
  deepsecure_serve --lint [--models NAME[,NAME…]] [--chunk-gates N]

  --listen       address to serve on (port 0 picks an ephemeral port)
  --models       comma-separated zoo models to host (default tiny_mlp;
                 mnist_mlp is the paper-scale one)
  --pool         precomputed instances kept warm per queue (default 2)
  --chunk-gates  stream garbled tables in chunks of N non-free gates
                 (0 = one chunk holding the whole cycle, the default). The
                 server pins the value in its OK frame; evaluators adopt
                 it. Models above the pool's 64 MiB material cap garble
                 live while streaming — O(chunk) resident per session
                 instead of O(circuit) per pooled instance.
  --sessions     exit gracefully after N sessions have finished
                 (default: serve forever)
  --seed         pool randomness seed (default 7)
  --threads      accept-loop shards, pool fill workers, and per-session
                 garbling/modexp pool width (0 = one per core; default
                 from DEEPSECURE_THREADS, else 1). A pure perf knob:
                 wire bytes are identical at any width.
  --queue-cap    per-shard accept-queue bound (default 64): connections
                 beyond it are shed immediately with `DSRV/2 BUSY`
                 instead of queuing into unbounded latency
  --model-session-cap
                 at most N live sessions per hosted model; excess
                 handshakes are shed with BUSY (default: unlimited)
  --live-session-cap
                 at most N live sessions across the models that garble
                 live (above the pool's material cap), whose per-session
                 CPU cost is the heavy one (default: unlimited)
  --retry-after-ms
                 backoff hint carried in every BUSY frame (default 100)
  --metrics-addr serve Prometheus text metrics over HTTP at this address
                 (GET /metrics; port 0 picks an ephemeral port): request
                 and session counters, online/setup latency histograms,
                 precompute-pool depth and hit/miss counters, per-shard
                 accept-queue depth, and live per-phase wire bytes
  --trace-out    record wall-time spans of every session's protocol
                 phases and write a Chrome trace-event JSON file at
                 shutdown (view at https://ui.perfetto.dev)
  --lint         do not serve: statically analyze the hosted models
                 (structural verification, cost prediction, optimization
                 opportunities — see circuit_lint) and exit non-zero if
                 any model reports a diagnostic. --listen is not needed.

Each model is trained and compiled deterministically at startup; clients
must present the same circuit fingerprint in their handshake.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("deepsecure_serve: error: {e}");
            ExitCode::FAILURE
        }
    }
}

struct ServeCli {
    config: ServeConfig,
    lint: bool,
    metrics_addr: Option<String>,
    trace_out: Option<String>,
}

fn parse(args: &[String]) -> Result<ServeCli, String> {
    let mut config = ServeConfig {
        addr: String::new(),
        ..ServeConfig::default()
    };
    let mut lint = false;
    let mut metrics_addr = None;
    let mut trace_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--listen" => config.addr = value("--listen")?,
            "--models" => {
                config.models = value("--models")?.split(',').map(str::to_string).collect();
            }
            "--pool" => {
                let v = value("--pool")?;
                config.pool_target = v
                    .parse()
                    .map_err(|_| format!("--pool takes a count, got {v:?}"))?;
            }
            "--chunk-gates" => {
                let v = value("--chunk-gates")?;
                config.chunk_gates = v
                    .parse()
                    .map_err(|_| format!("--chunk-gates takes a non-free gate count, got {v:?}"))?;
            }
            "--sessions" => {
                let v = value("--sessions")?;
                config.max_sessions = Some(
                    v.parse()
                        .map_err(|_| format!("--sessions takes a count, got {v:?}"))?,
                );
            }
            "--seed" => {
                let v = value("--seed")?;
                config.seed = v
                    .parse()
                    .map_err(|_| format!("--seed takes a number, got {v:?}"))?;
            }
            "--threads" => {
                let v = value("--threads")?;
                config.threads = v
                    .parse()
                    .map_err(|_| format!("--threads takes a count (0 = auto), got {v:?}"))?;
            }
            "--queue-cap" => {
                let v = value("--queue-cap")?;
                config.queue_cap = v
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("--queue-cap takes a positive count, got {v:?}"))?;
            }
            "--model-session-cap" => {
                let v = value("--model-session-cap")?;
                config.model_session_cap = Some(
                    v.parse()
                        .map_err(|_| format!("--model-session-cap takes a count, got {v:?}"))?,
                );
            }
            "--live-session-cap" => {
                let v = value("--live-session-cap")?;
                config.live_session_cap = Some(
                    v.parse()
                        .map_err(|_| format!("--live-session-cap takes a count, got {v:?}"))?,
                );
            }
            "--retry-after-ms" => {
                let v = value("--retry-after-ms")?;
                config.retry_after_ms = v
                    .parse()
                    .map_err(|_| format!("--retry-after-ms takes milliseconds, got {v:?}"))?;
            }
            "--metrics-addr" => metrics_addr = Some(value("--metrics-addr")?),
            "--trace-out" => trace_out = Some(value("--trace-out")?),
            "--lint" => lint = true,
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if config.addr.is_empty() && !lint {
        return Err(format!("--listen HOST:PORT is required\n{USAGE}"));
    }
    Ok(ServeCli {
        config,
        lint,
        metrics_addr,
        trace_out,
    })
}

/// Analyzes every hosted model instead of serving: the pre-deployment
/// sanity gate (`circuit_lint --model` over exactly the `--models` list,
/// with the peak-resident prediction at the configured chunk size).
fn lint_models(config: &ServeConfig) -> Result<(), String> {
    let chunks = if config.chunk_gates > 0 {
        vec![0, config.chunk_gates]
    } else {
        report::DEFAULT_CHUNK_SIZES.to_vec()
    };
    let mut dirty = Vec::new();
    for name in &config.models {
        eprintln!("serve: lint: building {name} (training + compiling)…");
        let model = demo::load(name)?;
        let a = analyze(&model.compiled.circuit);
        print!("{}", report::render_text(name, &a, &chunks));
        if !a.is_clean() {
            dirty.push(name.clone());
        }
    }
    if dirty.is_empty() {
        Ok(())
    } else {
        Err(format!("models with diagnostics: {}", dirty.join(", ")))
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let ServeCli {
        config,
        lint,
        metrics_addr,
        trace_out,
    } = parse(args)?;
    if lint {
        return lint_models(&config);
    }
    if trace_out.is_some() {
        let _ = trace::start();
    }
    eprintln!(
        "serve: building {} (training + compiling at startup)…",
        config.models.join(", ")
    );
    let server = Server::bind(&config).map_err(|e| e.to_string())?;
    eprintln!(
        "serve: listening on {} (pool target {} per queue{}{}{})",
        server.local_addr(),
        config.pool_target,
        match config.threads {
            0 => ", one shard per core".to_string(),
            1 => String::new(),
            n => format!(", {n} shards"),
        },
        if config.chunk_gates > 0 {
            format!(", streaming chunks of {} gates", config.chunk_gates)
        } else {
            String::new()
        },
        config
            .max_sessions
            .map(|n| format!(", exits after {n} sessions"))
            .unwrap_or_default()
    );
    let metrics = match &metrics_addr {
        Some(addr) => {
            let m = MetricsServer::start(addr, server.handle())
                .map_err(|e| format!("binding metrics endpoint {addr}: {e}"))?;
            eprintln!("serve: metrics at http://{}/metrics", m.local_addr());
            Some(m)
        }
        None => None,
    };
    let stats = server.run();
    if let Some(m) = &metrics {
        m.stop();
    }
    if let Some(path) = &trace_out {
        // No report.* track: the sessions' umbrella spans are the record.
        trace::write_trace(path, "serve", 0, &[])?;
        eprintln!("serve: wrote trace to {path}");
    }
    println!("serve: final stats\n{}", stats.summary());
    Ok(())
}
