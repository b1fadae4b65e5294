//! Network-transport benchmarks: the same tiny_mlp secure inference over
//! in-memory channels, real TCP loopback, and simulated LAN/WAN links —
//! the numbers behind the transport section of BENCH_BASELINE.md — each
//! at a **whole-cycle chunk** (`chunk_gates = 0`: the tables still follow
//! the labels and OT, as one chunk per cycle; there is no buffered mode)
//! and **streamed** in 8192-gate chunks (overlapping garbling, transfer,
//! and evaluation). Every run asserts the decoded label against the
//! plaintext oracle, and the streamed runs additionally assert the
//! per-phase wire bytes match the whole-cycle-chunk run bit for bit, so
//! the `-- --test` smoke mode in CI doubles as a transport *and*
//! chunking-equivalence check.

use std::sync::Arc;
use std::sync::OnceLock;

use criterion::{criterion_group, criterion_main, Criterion};
use deepsecure_core::compile::{compile, plain_label, CompileOptions, Compiled};
use deepsecure_core::protocol::{run_compiled_over, InferenceConfig};
use deepsecure_core::session::WireBreakdown;
use deepsecure_nn::{data, zoo};
use deepsecure_ot::{mem_pair, tcp_pair, Channel, NetModel, SimChannel};
use deepsecure_synth::activation::Activation;

/// Non-free gates per streamed chunk (256 KiB of tables): small enough to
/// overlap well, large enough to keep per-chunk overhead negligible.
const CHUNK_GATES: usize = 8192;

struct Setup {
    compiled: Arc<Compiled>,
    g_bits: Vec<Vec<bool>>,
    e_bits: Vec<Vec<bool>>,
    cfg: InferenceConfig,
    expected: usize,
    /// Whole-cycle-chunk run's wire breakdown — the oracle streamed runs
    /// must hit.
    whole_cycle_wire: OnceLock<WireBreakdown>,
}

fn setup() -> Setup {
    let set = data::digits_small(4, 1);
    let net = zoo::tiny_mlp(set.num_classes);
    let cfg = InferenceConfig {
        options: CompileOptions {
            tanh: Activation::TanhPl,
            sigmoid: Activation::SigmoidPlan,
            ..CompileOptions::default()
        },
        ..InferenceConfig::default()
    };
    let compiled = Arc::new(compile(&net, &cfg.options));
    let expected = plain_label(&compiled, &net, &set.inputs[0]);
    Setup {
        g_bits: vec![compiled.input_bits(&set.inputs[0])],
        e_bits: vec![compiled.weight_bits(&net)],
        compiled,
        cfg,
        expected,
        whole_cycle_wire: OnceLock::new(),
    }
}

impl Setup {
    fn cfg_with_chunk(&self, chunk_gates: usize) -> InferenceConfig {
        InferenceConfig {
            chunk_gates,
            ..self.cfg.clone()
        }
    }
}

/// Runs one inference over the channel pair with the given chunking and
/// checks the label plus (for streamed runs) wire equality with the
/// whole-cycle chunk.
fn run_over<CC, CS>(s: &Setup, chunk_gates: usize, ca: CC, cb: CS)
where
    CC: Channel,
    CS: Channel + Send + 'static,
{
    let report = run_compiled_over(
        Arc::clone(&s.compiled),
        s.g_bits.clone(),
        s.e_bits.clone(),
        &s.cfg_with_chunk(chunk_gates),
        ca,
        cb,
    )
    .unwrap();
    assert_eq!(report.label, s.expected);
    if chunk_gates > 0 {
        // Chunking must never change the wire; and a streamed run must
        // hold only one chunk of tables at a time.
        if let Some(whole) = s.whole_cycle_wire.get() {
            assert_eq!(
                &report.wire, whole,
                "streamed wire != whole-cycle chunk wire"
            );
        }
        assert_eq!(report.peak_material_bytes, (chunk_gates * 32) as u64);
    } else {
        let _ = s.whole_cycle_wire.set(report.wire);
    }
}

fn run_mem(s: &Setup, chunk_gates: usize) {
    let (ca, cb) = mem_pair();
    run_over(s, chunk_gates, ca, cb);
}

fn run_tcp(s: &Setup, chunk_gates: usize) {
    let (ca, cb) = tcp_pair().expect("loopback pair");
    run_over(s, chunk_gates, ca, cb);
}

fn run_sim(s: &Setup, chunk_gates: usize, model: NetModel) {
    let (ca, cb) = mem_pair();
    run_over(
        s,
        chunk_gates,
        SimChannel::new(ca, model),
        SimChannel::new(cb, model),
    );
}

fn bench_netbench(c: &mut Criterion) {
    let s = setup();
    let mut group = c.benchmark_group("net");
    group.sample_size(2);
    group.bench_function("secure_inference/tiny_mlp/mem", |bench| {
        bench.iter(|| run_mem(&s, 0));
    });
    group.bench_function("secure_inference/tiny_mlp/mem_streamed", |bench| {
        bench.iter(|| run_mem(&s, CHUNK_GATES));
    });
    group.bench_function("secure_inference/tiny_mlp/tcp_loopback", |bench| {
        bench.iter(|| run_tcp(&s, 0));
    });
    group.bench_function("secure_inference/tiny_mlp/tcp_loopback_streamed", |bench| {
        bench.iter(|| run_tcp(&s, CHUNK_GATES));
    });
    group.bench_function("secure_inference/tiny_mlp/sim_lan_1gbps_1ms", |bench| {
        bench.iter(|| run_sim(&s, 0, NetModel::lan()));
    });
    group.bench_function(
        "secure_inference/tiny_mlp/sim_lan_1gbps_1ms_streamed",
        |bench| {
            bench.iter(|| run_sim(&s, CHUNK_GATES, NetModel::lan()));
        },
    );
    group.bench_function("secure_inference/tiny_mlp/sim_wan_40mbps_40ms", |bench| {
        bench.iter(|| run_sim(&s, 0, NetModel::wan()));
    });
    group.bench_function(
        "secure_inference/tiny_mlp/sim_wan_40mbps_40ms_streamed",
        |bench| {
            bench.iter(|| run_sim(&s, CHUNK_GATES, NetModel::wan()));
        },
    );
    group.finish();
}

criterion_group!(benches, bench_netbench);
criterion_main!(benches);
