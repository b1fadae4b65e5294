//! The three workloads. Each sets up several times (reporting the median
//! set-up time), measures for the given seconds, checks every output and
//! returns its end-to-end metrics; a traced run returns the per-layer
//! metrics instead.
//!
//! | workload            | stresses | bypasses |
//! |---------------------|----------|----------|
//! | `oneshot_tiny_mlp`  | `bigint` modexps of base OT (~70 % of the time), `ot::base`, one live garble/eval | `serve` |
//! | `warm_mnist_mlp_c`  | `garble`, `crypto` AES, `ot::ext`, `ot::tcp` (base OT < 3 %) | `bigint` after set-up, `serve` |
//! | `serve_mnist_mlp_c` | `serve::pool` precompute and refill, OT-ext, streaming, client eval | garbling on the critical path while the pool is stocked |
//!
//! Predictions the per-layer metrics are read against: base-OT layers
//! (`bigint.modexp_ms`, `ot.base.sender_precomp_s`, session set-up) move
//! `inference_p50_s` on `oneshot_tiny_mlp` and about nothing on
//! `warm_mnist_mlp_c`; garbling, AES, OT-extension and loopback rates move
//! `inference_p50_s` on `warm_mnist_mlp_c` and throughput and p90 on
//! `serve_mnist_mlp_c`; pool and queue metrics move only
//! `serve_mnist_mlp_c`; `demo.load_s` and `serve.pool_warm_s` move
//! `setup_s`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use deepsecure_core::compile::{plain_label, Compiled};
use deepsecure_core::protocol::{InferenceConfig, ProtocolError};
use deepsecure_core::session::WireBreakdown;
use deepsecure_serve::demo::{self, DemoModel};
use deepsecure_serve::pool::PoolStats;
use deepsecure_serve::stats::ServeStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::pair::{Inference, Pair, SetupTimes};
use crate::probes;
use crate::serving::{fixed_rate_schedule, Query, Rig, RigSetup};
use crate::stats::{cpu_seconds, mean, median, peak_rss_mb, quantile, reconciles};
use crate::trace::{durations, timed};
use crate::transport::{predicted_wan_s, Counters};

/// Non-free gates per streamed table chunk, on every workload.
pub const CHUNK_GATES: usize = 8192;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Distinct dataset samples one run queries, drawn from the seed.
const SAMPLES: usize = 8;
/// Open-loop arrival rate of `serve_mnist_mlp_c`, queries per second.
const SERVE_RATE: f64 = 2.0;
/// Share of a `serve_mnist_mlp_c` run spent in the open-loop phase.
const OPEN_LOOP_SHARE: f64 = 0.6;
/// Persistent connections of `serve_mnist_mlp_c` (= `nproc` here).
const SERVE_CLIENTS: usize = 2;

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["oneshot_tiny_mlp", "warm_mnist_mlp_c", "serve_mnist_mlp_c"];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Inferences attempted.
    pub attempted: u64,
    /// Inferences that failed or returned a wrong output.
    pub failed: u64,
    /// Every check that did not hold (wrong outputs, traced layers that
    /// do not add up).
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }
}

/// A loaded model with the run's seeded sample set and its plaintext
/// labels.
struct Model {
    compiled: Arc<Compiled>,
    weight_bits: Arc<Vec<Vec<bool>>>,
    samples: Vec<usize>,
    inputs: BTreeMap<usize, Vec<Vec<bool>>>,
    expected: BTreeMap<usize, usize>,
    table_bytes: u64,
    non_free_gates: u64,
}

impl Model {
    /// Wraps a loaded demo model: draws the sample set and computes the
    /// plaintext labels (`core::compile::plain_label`) and the circuit's
    /// table bytes (`analyze::analyze`) the outputs are checked against.
    fn new(demo: &DemoModel, rng: &mut StdRng) -> Result<Model, String> {
        let n = demo.dataset.len();
        let mut samples = Vec::new();
        while samples.len() < SAMPLES.min(n) {
            let s = rng.gen_range(0..n);
            if !samples.contains(&s) {
                samples.push(s);
            }
        }
        let inputs = samples
            .iter()
            .map(|&s| (s, vec![demo.compiled.input_bits(&demo.dataset.inputs[s])]))
            .collect();
        let expected = samples
            .iter()
            .map(|&s| {
                (
                    s,
                    plain_label(&demo.compiled, &demo.net, &demo.dataset.inputs[s]),
                )
            })
            .collect();
        let cost = deepsecure_analyze::analyze(&demo.compiled.circuit)
            .cost
            .ok_or_else(|| format!("{}: circuit failed structural analysis", demo.name))?;
        Ok(Model {
            compiled: Arc::clone(&demo.compiled),
            weight_bits: Arc::new(vec![demo.compiled.weight_bits(&demo.net)]),
            samples,
            inputs,
            expected,
            table_bytes: cost.table_bytes,
            non_free_gates: cost.non_free_gates,
        })
    }

    fn pick(&self, rng: &mut StdRng) -> usize {
        self.samples[rng.gen_range(0..self.samples.len())]
    }
}

/// Checks one output against the plaintext label, the analyzer's table
/// bytes and the first inference's byte total.
struct Gate {
    total_bytes: Option<u64>,
}

impl Gate {
    fn check(
        &mut self,
        model: &Model,
        sample: usize,
        label: usize,
        wire: &WireBreakdown,
        total: u64,
    ) -> Result<(), String> {
        let expected = model.expected[&sample];
        if label != expected {
            return Err(format!(
                "sample {sample}: label {label}, plaintext {expected}"
            ));
        }
        if wire.tables != model.table_bytes {
            return Err(format!(
                "sample {sample}: {} table bytes, analyzer predicts {}",
                wire.tables, model.table_bytes
            ));
        }
        match self.total_bytes {
            None => self.total_bytes = Some(total),
            Some(t) if t != total => {
                return Err(format!(
                    "sample {sample}: moved {total} bytes, first inference {t}"
                ))
            }
            Some(_) => {}
        }
        Ok(())
    }
}

/// The inference configuration every workload shares.
fn config(seed: u64) -> InferenceConfig {
    InferenceConfig {
        seed,
        chunk_gates: CHUNK_GATES,
        ..demo::inference_config()
    }
}

/// Runs `setup` [`SETUP_REPS`] times, keeping the last result; returns it
/// with every set-up's wall time. Each earlier result is discarded before
/// the next set-up starts, so set-ups never share time or memory.
fn repeat_setup<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = kept.take() {
            discard(old);
        }
        let t0 = Instant::now();
        kept = Some(setup(rep)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// Per-inference samples of a two-party workload.
#[derive(Default)]
struct PairSamples {
    untraced: Vec<f64>,
    traced: Vec<f64>,
    reported_setup: Vec<f64>,
    client_io: Vec<Counters>,
    server_io: Vec<Counters>,
}

impl PairSamples {
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        out: &mut Outcome,
        gate: &mut Gate,
        model: &Model,
        sample: usize,
        setup: Option<&SetupTimes>,
        inf: &Inference,
        wall_s: f64,
        traced: bool,
    ) {
        let base_ot = setup.map_or(0, |s| s.base_ot_bytes);
        let total = base_ot + inf.wire.total();
        if inf.wire != inf.server_wire {
            out.fail(format!("sample {sample}: parties disagree on the wire"));
            return;
        }
        if let Err(e) = gate.check(model, sample, inf.label, &inf.wire, total) {
            out.fail(e);
            return;
        }
        if !traced {
            self.untraced.push(wall_s);
            return;
        }
        self.traced.push(wall_s);
        let setup_s = setup.map_or(0.0, |s| s.client_s);
        if !reconciles(setup_s + inf.client_online_s, wall_s) {
            out.problems.push(format!(
                "sample {sample}: client set-up {setup_s:.4} s + online {:.4} s does not match wall {wall_s:.4} s",
                inf.client_online_s
            ));
        }
        let (mut c, mut s) = (inf.client_io, inf.server_io);
        if let Some(st) = setup {
            c = c + st.client_io;
            s = s + st.server_io;
            self.reported_setup.push(st.reported_s);
        }
        self.client_io.push(c);
        self.server_io.push(s);
    }
}

fn end_to_end(
    out: &mut Outcome,
    setup_times: &[f64],
    walls: &[f64],
    throughput: f64,
    wire: f64,
    cpu: f64,
) {
    out.set("setup_s", median(setup_times));
    out.set("inference_p50_s", median(walls));
    out.set("inference_p90_s", quantile(walls, 0.9));
    out.set("throughput_inf_per_s", throughput);
    out.set("wire_bytes_per_inference", wire);
    out.set("cpu_s_per_inference", cpu);
    out.set("peak_rss_mb", peak_rss_mb());
}

/// Session and transport layers from the traced inferences of a pair
/// workload (or of the session probe).
fn session_layers(out: &mut Outcome, s: &PairSamples) {
    let client_setup = median(&durations("core.session.client_setup"));
    out.set("core.session.client_setup_s", client_setup);
    out.set(
        "core.session.server_setup_s",
        median(&durations("core.session.server_setup")),
    );
    let reported = median(&s.reported_setup);
    out.set("core.session.reported_ot_setup_s", reported);
    out.set(
        "core.session.setup_accounting_gap_s",
        client_setup - reported,
    );
    out.set(
        "core.session.client_online_s",
        median(&durations("core.session.client_online")),
    );
    out.set(
        "core.session.server_online_s",
        median(&durations("core.session.server_online")),
    );
    let per = |f: &dyn Fn(&Counters, &Counters) -> f64| -> f64 {
        let v: Vec<f64> = s
            .client_io
            .iter()
            .zip(&s.server_io)
            .map(|(c, v)| f(c, v))
            .collect();
        median(&v)
    };
    out.set(
        "transport.turnarounds_per_inference",
        per(&|c, s| (c.turnarounds + s.turnarounds) as f64),
    );
    out.set("transport.client_recv_wait_s", per(&|c, _| c.recv_wait_s));
    out.set("transport.server_recv_wait_s", per(&|_, s| s.recv_wait_s));
    out.set("transport.bytes_up", per(&|c, _| c.sent as f64));
    out.set("transport.bytes_down", per(&|c, _| c.received as f64));
    out.set(
        "transport.predicted_wan_s",
        per(&|c, s| predicted_wan_s(c, s)),
    );
}

fn overhead_layers(out: &mut Outcome, untraced: &[f64], traced: &[f64]) {
    let (u, t) = (median(untraced), median(traced));
    out.set("trace.untraced_p50_s", u);
    out.set("trace.traced_p50_s", t);
    out.set("trace.overhead_share", t / u - 1.0);
}

/// The layer probes every traced run takes on its own model.
fn probe_layers(out: &mut Outcome, model: &Model, cfg: &InferenceConfig, rng: &mut StdRng) {
    let sample = model.samples[0];
    out.set("circuit.non_free_gates", model.non_free_gates as f64);
    out.set("circuit.table_bytes", model.table_bytes as f64);
    out.set(
        "crypto.aes_mblocks_per_s",
        probes::aes_mblocks_per_s(1 << 21),
    );
    match probes::garble_eval_mgates_per_s(
        &model.compiled,
        &model.inputs[&sample][0],
        &model.weight_bits[0],
        model.expected[&sample],
        cfg.pool(),
        rng.gen(),
    ) {
        Ok((g, e)) => {
            out.set("garble.garble_mgates_per_s", g);
            out.set("garble.eval_mgates_per_s", e);
        }
        Err(e) => out.problems.push(e),
    }
    let ots = model.weight_bits[0].len();
    match probes::ot_ext_ots_per_s(&cfg.group, ots, rng.gen()) {
        Ok(r) => out.set("ot.ext.ots_per_s", r),
        Err(e) => out.problems.push(e),
    }
    match probes::tcp_loopback_mb_per_s(model.table_bytes as usize, CHUNK_GATES * 32) {
        Ok(r) => out.set("ot.tcp.loopback_mb_per_s", r),
        Err(e) => out.problems.push(e),
    }
    out.set(
        "bigint.modexp_ms",
        probes::modexp_ms(&cfg.group, 64, rng.gen()),
    );
    out.set(
        "ot.base.sender_precomp_s",
        probes::sender_precomp_s(&cfg.group, cfg.pool(), rng.gen()),
    );
}

/// Runs `infer` back to back for `seconds` (at least once, stopping at
/// the first failure) on samples drawn from the model, checking every
/// output; every other inference is traced when `trace` is set. An
/// untraced run ends with its end-to-end metrics.
///
/// `infer(sample, rng, traced, req)` returns the inference, the set-up it
/// paid for (one-shot) and its wall time.
fn pair_loop(
    out: &mut Outcome,
    model: &Model,
    setup_times: &[f64],
    seconds: f64,
    trace: bool,
    rng: &mut StdRng,
    mut infer: impl FnMut(
        usize,
        &mut StdRng,
        bool,
        u64,
    ) -> Result<(Option<SetupTimes>, Inference, f64), ProtocolError>,
) -> PairSamples {
    let mut gate = Gate { total_bytes: None };
    let mut s = PairSamples::default();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let mut i = 0u64;
    while i == 0 || Instant::now() < deadline {
        let sample = model.pick(rng);
        let traced = trace && i % 2 == 1;
        out.attempted += 1;
        match infer(sample, rng, traced, i) {
            Ok((setup, inf, wall_s)) => s.record(
                out,
                &mut gate,
                model,
                sample,
                setup.as_ref(),
                &inf,
                wall_s,
                traced,
            ),
            Err(e) => {
                out.fail(format!("inference {i}: {e}"));
                break;
            }
        }
        i += 1;
    }
    if !trace {
        let n = s.untraced.len();
        let elapsed = t0.elapsed().as_secs_f64();
        let cpu = (cpu_seconds() - cpu0) / n.max(1) as f64;
        let wire = gate.total_bytes.map_or(f64::NAN, |b| b as f64);
        end_to_end(out, setup_times, &s.untraced, n as f64 / elapsed, wire, cpu);
    }
    s
}

/// `oneshot_tiny_mlp`: closed loop, one user; every inference is a fresh
/// session (base OT, then one online run with live garbling).
pub fn oneshot(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let loaded = repeat_setup(
        |rep| {
            let (m, _) = timed(trace, "demo.load", rep as u64, || demo::load("tiny_mlp"));
            m
        },
        drop,
    );
    let (demo, setup_times) = match loaded {
        Ok(v) => v,
        Err(e) => return setup_failed(out, e),
    };
    let model = match Model::new(&demo, &mut rng) {
        Ok(m) => m,
        Err(e) => return setup_failed(out, e),
    };
    let s = pair_loop(
        &mut out,
        &model,
        &setup_times,
        seconds,
        trace,
        &mut rng,
        |sample, rng, traced, i| {
            let cfg = config(rng.gen());
            let garble_seed: u64 = rng.gen();
            let start = Instant::now();
            let (mut pair, setup) = Pair::connect(
                &model.compiled,
                &cfg,
                Arc::clone(&model.weight_bits),
                traced,
                i,
            )?;
            let inf = pair.infer(&model.inputs[&sample], garble_seed, traced, i);
            let finished = pair.finish();
            let inf = inf?;
            finished?;
            Ok((Some(setup), inf, start.elapsed().as_secs_f64()))
        },
    );
    if !trace {
        return out;
    }
    out.set("demo.load_s", median(&durations("demo.load")));
    session_layers(&mut out, &s);
    overhead_layers(&mut out, &s.untraced, &s.traced);
    let cfg = config(rng.gen());
    probe_layers(&mut out, &model, &cfg, &mut rng);
    serve_probe(&mut out, "tiny_mlp", &mut rng);
    out
}

/// `warm_mnist_mlp_c`: one session (base OT once), then back-to-back
/// online inferences with live garbling.
pub fn warm(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = config(rng.gen());
    let mut setups = Vec::new();
    let loaded = repeat_setup(
        |rep| {
            let (m, _) = timed(trace, "demo.load", rep as u64, || demo::load("mnist_mlp_c"));
            let demo = m?;
            let weight_bits = Arc::new(vec![demo.compiled.weight_bits(&demo.net)]);
            let (pair, setup) = Pair::connect(&demo.compiled, &cfg, weight_bits, trace, rep as u64)
                .map_err(|e| format!("session set-up: {e}"))?;
            setups.push(setup);
            Ok((demo, pair))
        },
        |(_, pair)| {
            // A discarded pair only ran its set-up, whose failures
            // `Pair::connect` already reported.
            let _ = pair.finish();
        },
    );
    let ((demo, mut pair), setup_times) = match loaded {
        Ok(v) => v,
        Err(e) => return setup_failed(out, e),
    };
    let model = match Model::new(&demo, &mut rng) {
        Ok(m) => m,
        Err(e) => {
            let _ = pair.finish();
            return setup_failed(out, e);
        }
    };
    let mut s = pair_loop(
        &mut out,
        &model,
        &setup_times,
        seconds,
        trace,
        &mut rng,
        |sample, rng, traced, i| {
            let inf = pair.infer(&model.inputs[&sample], rng.gen(), traced, i)?;
            let wall_s = inf.wall_s;
            Ok((None, inf, wall_s))
        },
    );
    if let Err(e) = pair.finish() {
        out.problems.push(format!("warm session: {e}"));
    }
    if !trace {
        return out;
    }
    out.set("demo.load_s", median(&durations("demo.load")));
    s.reported_setup = setups.iter().map(|st| st.reported_s).collect();
    session_layers(&mut out, &s);
    overhead_layers(&mut out, &s.untraced, &s.traced);
    probe_layers(&mut out, &model, &cfg, &mut rng);
    serve_probe(&mut out, "mnist_mlp_c", &mut rng);
    out
}

/// `serve_mnist_mlp_c`: an in-process server with a warm pool and two
/// persistent connections; open loop at [`SERVE_RATE`], then closed loop.
pub fn serve(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rig_setups = Vec::new();
    let started = repeat_setup(
        |_| {
            let (rig, setup) = Rig::start("mnist_mlp_c", CHUNK_GATES, SERVE_CLIENTS, &mut rng)
                .map_err(|e| format!("serving set-up: {e}"))?;
            rig_setups.push(setup);
            Ok(rig)
        },
        |rig| {
            let _ = rig.stop();
        },
    );
    let (mut rig, setup_times) = match started {
        Ok(v) => v,
        Err(e) => return setup_failed(out, e),
    };
    let model = match Model::new(&rig.model.demo, &mut rng) {
        Ok(m) => m,
        Err(e) => {
            let _ = rig.stop();
            return setup_failed(out, e);
        }
    };
    // One unmeasured query per connection first: the first query of a
    // connection pays one-off allocation and socket warm-up.
    let (warmup, _) = rig.closed_loop(0.0, &model.samples);
    let pool0 = rig.pool_stats();
    let cpu0 = cpu_seconds();
    let open_s = seconds * OPEN_LOOP_SHARE;
    let schedule = fixed_rate_schedule(&mut rng, SERVE_RATE, open_s, &model.samples);
    let open = rig.open_loop(&schedule, trace);
    let (closed, closed_s) = rig.closed_loop(seconds - open_s, &model.samples);
    let cpu = cpu_seconds() - cpu0;
    let pool = rig.pool_stats();
    let stats = rig.stats();
    let stopped = rig.stop();
    let mut gate = Gate { total_bytes: None };
    for q in warmup.iter().chain(&open).chain(&closed) {
        out.attempted += 1;
        match &q.outcome {
            Ok(o) => {
                if let Err(e) = gate.check(&model, q.sample, o.label, &o.wire, o.wire.total()) {
                    out.fail(e);
                }
            }
            Err(e) => out.fail(format!("query {}: {e}", q.id)),
        }
    }
    if let Err(e) = stopped {
        out.problems.push(e.to_string());
    }
    let ok = |qs: &[Query]| -> Vec<f64> {
        qs.iter()
            .filter(|q| q.outcome.is_ok())
            .map(Query::latency_s)
            .collect()
    };
    let answered = (ok(&open).len() + ok(&closed).len()).max(1);
    if !trace {
        let wire = gate.total_bytes.map_or(f64::NAN, |b| b as f64);
        let throughput = ok(&closed).len() as f64 / closed_s;
        end_to_end(
            &mut out,
            &setup_times,
            &ok(&open),
            throughput,
            wire,
            cpu / answered as f64,
        );
        return out;
    }
    let traced: Vec<&Query> = open
        .iter()
        .filter(|q| q.traced && q.outcome.is_ok())
        .collect();
    for q in &traced {
        if !reconciles(q.queue_wait_s() + q.query_s(), q.latency_s()) {
            out.problems.push(format!(
                "query {}: queue wait + query does not match latency from due",
                q.id
            ));
        }
    }
    out.set(
        "demo.load_s",
        median(
            &rig_setups
                .iter()
                .map(|s| s.client_load_s)
                .collect::<Vec<_>>(),
        ),
    );
    serve_layers(&mut out, &rig_setups, &traced, &open, pool0, pool, &stats);
    let untraced: Vec<f64> = open
        .iter()
        .filter(|q| !q.traced && q.outcome.is_ok())
        .map(Query::latency_s)
        .collect();
    let traced_lat: Vec<f64> = traced.iter().map(|q| q.latency_s()).collect();
    overhead_layers(&mut out, &untraced, &traced_lat);
    let cfg = config(rng.gen());
    probe_layers(&mut out, &model, &cfg, &mut rng);
    session_probe(&mut out, &model, &cfg, &mut rng);
    out
}

fn serve_layers(
    out: &mut Outcome,
    setups: &[RigSetup],
    traced: &[&Query],
    open: &[Query],
    pool0: PoolStats,
    pool: PoolStats,
    stats: &ServeStats,
) {
    let connects: Vec<f64> = setups
        .iter()
        .flat_map(|s| s.connect_s.iter().copied())
        .collect();
    out.set(
        "serve.pool_warm_s",
        median(&setups.iter().map(|s| s.pool_warm_s).collect::<Vec<_>>()),
    );
    out.set("serve.connect_s", median(&connects));
    out.set("serve.query_s", median(&durations("serve.query")));
    out.set(
        "serve.queue_wait_s",
        mean(&traced.iter().map(|q| q.queue_wait_s()).collect::<Vec<_>>()),
    );
    out.set(
        "serve.generator_lag_s",
        mean(&open.iter().map(|q| q.lag_s).collect::<Vec<_>>()),
    );
    let hits = (pool.material_hits - pool0.material_hits) as f64;
    let misses = (pool.material_misses - pool0.material_misses) as f64;
    out.set("serve.pool_material_hit_ratio", hits / (hits + misses));
    out.set(
        "serve.queue_depth_max",
        open.iter().map(|q| q.queue_depth).max().unwrap_or(0) as f64,
    );
    out.set("serve.sessions_failed", stats.sessions_failed as f64);
}

/// Serving layers for a workload that bypasses `serve`: one connection,
/// a few open-loop queries at [`SERVE_RATE`] on the workload's model.
fn serve_probe(out: &mut Outcome, model: &str, rng: &mut StdRng) {
    const QUERIES: usize = 6;
    let (mut rig, setup) = match Rig::start(model, CHUNK_GATES, 1, rng) {
        Ok(v) => v,
        Err(e) => {
            out.problems.push(format!("serve probe: {e}"));
            return;
        }
    };
    let n = rig.model.demo.dataset.len();
    let samples: Vec<usize> = (0..QUERIES).map(|_| rng.gen_range(0..n)).collect();
    let pool0 = rig.pool_stats();
    let schedule = fixed_rate_schedule(rng, SERVE_RATE, QUERIES as f64 / SERVE_RATE, &samples);
    let open = rig.open_loop(&schedule, true);
    let pool = rig.pool_stats();
    let stats = rig.stats();
    if let Err(e) = rig.stop() {
        out.problems.push(e.to_string());
    }
    let traced: Vec<&Query> = open.iter().filter(|q| q.outcome.is_ok()).collect();
    if traced.len() != open.len() {
        out.problems.push("serve probe: a query failed".to_string());
    }
    serve_layers(out, &[setup], &traced, &open, pool0, pool, &stats);
}

/// Session and transport layers for a workload that bypasses
/// `core::session`: one traced session with a few online inferences.
fn session_probe(out: &mut Outcome, model: &Model, cfg: &InferenceConfig, rng: &mut StdRng) {
    const INFERENCES: u64 = 4;
    let (mut pair, setup) = match Pair::connect(
        &model.compiled,
        cfg,
        Arc::clone(&model.weight_bits),
        true,
        0,
    ) {
        Ok(v) => v,
        Err(e) => {
            out.problems.push(format!("session probe: {e}"));
            return;
        }
    };
    let mut gate = Gate { total_bytes: None };
    let mut s = PairSamples {
        reported_setup: vec![setup.reported_s],
        ..PairSamples::default()
    };
    for i in 0..INFERENCES {
        let sample = model.pick(rng);
        match pair.infer(&model.inputs[&sample], rng.gen(), true, i) {
            Ok(inf) => {
                let mut probe = Outcome::default();
                s.record(
                    &mut probe, &mut gate, model, sample, None, &inf, inf.wall_s, true,
                );
                out.problems.append(&mut probe.problems);
            }
            Err(e) => {
                out.problems.push(format!("session probe: {e}"));
                break;
            }
        }
    }
    if let Err(e) = pair.finish() {
        out.problems.push(format!("session probe: {e}"));
    }
    session_layers(out, &s);
}

fn setup_failed(mut out: Outcome, e: String) -> Outcome {
    out.attempted = out.attempted.max(1);
    out.fail(format!("set-up failed: {e}"));
    out
}
