//! Layer probes: each times a public call of one layer on the workload's
//! own circuit, DH group and OT count, with nothing else running.

use std::hint::black_box;

use deepsecure_bigint::DhGroup;
use deepsecure_core::compile::Compiled;
use deepsecure_crypto::aes::Aes128;
use deepsecure_crypto::Block;
use deepsecure_garble::{Evaluator, Garbler};
use deepsecure_ot::ext::{ExtReceiver, ExtSender, SenderPrecomp};
use deepsecure_ot::{tcp_pair, Channel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workpool::ThreadPool;

use crate::stats::median;
use crate::trace::timed;

/// Repetitions of each probe; the median is reported.
const REPS: usize = 3;

/// Fixed-key AES throughput in million blocks per second, over
/// `blocks` blocks in batches of eight (the garbling hash's width).
pub fn aes_mblocks_per_s(blocks: usize) -> f64 {
    let aes = Aes128::new(*b"perfbench-aes-k!");
    let rates: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut state = [[7u8; 16]; 8];
            let (_, s) = timed(true, "crypto.aes", 0, || {
                for _ in 0..blocks / 8 {
                    state = aes.encrypt_blocks(black_box(state));
                }
            });
            black_box(state);
            (blocks / 8 * 8) as f64 / s / 1e6
        })
        .collect();
    median(&rates)
}

/// Garbling and evaluation rates of one cycle of `compiled`, in million
/// non-free gates per second, checking that evaluation decodes to
/// `expected`.
///
/// # Errors
///
/// Returns a message when the evaluated label differs from `expected`.
pub fn garble_eval_mgates_per_s(
    compiled: &Compiled,
    g_bits: &[bool],
    e_bits: &[bool],
    expected: usize,
    pool: ThreadPool,
    seed: u64,
) -> Result<(f64, f64), String> {
    let circuit = &compiled.circuit;
    let mgates = circuit.nonfree_gate_count() as f64 / 1e6;
    let mut garble = Vec::new();
    let mut eval = Vec::new();
    for rep in 0..REPS {
        let mut rng = StdRng::seed_from_u64(seed ^ rep as u64);
        let mut garbler = Garbler::new(circuit, &mut rng).with_pool(pool);
        let (cycle, g_s) = timed(true, "garble.garble_cycle", 0, || {
            garbler.garble_cycle(&mut rng)
        });
        let g_active = cycle.garbler_active(g_bits);
        let e_active = cycle.evaluator_active(e_bits);
        let mut evaluator = Evaluator::new(circuit).with_pool(pool);
        evaluator.set_constant_labels(cycle.constant_labels[0], cycle.constant_labels[1]);
        let (bits, e_s) = timed(true, "garble.eval_cycle", 0, || {
            evaluator.eval_cycle(&cycle.tables, &g_active, &e_active, &cycle.output_decode)
        });
        let label = compiled.decode_label(&bits);
        if label != expected {
            return Err(format!(
                "garble/eval probe decoded {label}, plaintext says {expected}"
            ));
        }
        garble.push(mgates / g_s);
        eval.push(mgates / e_s);
    }
    Ok((median(&garble), median(&eval)))
}

/// IKNP extension rate in OTs per second for batches of `n` OTs (one
/// base-OT setup, then timed `ExtSender::send`/`ExtReceiver::receive`
/// batches on two threads), checking every received label.
///
/// # Errors
///
/// Returns a message on a transport failure or a wrong label.
pub fn ot_ext_ots_per_s(group: &DhGroup, n: usize, seed: u64) -> Result<f64, String> {
    let (mut cs, mut cr) = tcp_pair().map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(seed);
    let pairs: Vec<(Block, Block)> = (0..n)
        .map(|_| (Block::random(&mut rng), Block::random(&mut rng)))
        .collect();
    let choices: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
    let recv_choices = choices.clone();
    let recv_group = group.clone();
    let receiver = std::thread::spawn(move || -> Result<Vec<(Vec<Block>, f64)>, String> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0b0b);
        let mut ext =
            ExtReceiver::setup(&mut cr, &recv_group, &mut rng).map_err(|e| e.to_string())?;
        (0..REPS)
            .map(|_| {
                let (got, s) = timed(true, "ot.ext.receive", 0, || {
                    ext.receive(&mut cr, &recv_choices)
                });
                Ok((got.map_err(|e| e.to_string())?, s))
            })
            .collect()
    });
    let mut ext = ExtSender::setup(&mut cs, group, &mut rng).map_err(|e| e.to_string())?;
    for _ in 0..REPS {
        let (sent, _) = timed(true, "ot.ext.send", 0, || ext.send(&mut cs, &pairs));
        sent.map_err(|e| e.to_string())?;
        cs.flush().map_err(|e| e.to_string())?;
    }
    let received = receiver
        .join()
        .map_err(|_| "OT receiver panicked".to_string())??;
    let mut rates = Vec::new();
    for (got, s) in received {
        let ok = got.len() == n
            && got
                .iter()
                .zip(pairs.iter().zip(&choices))
                .all(|(g, ((m0, m1), &c))| g == if c { m1 } else { m0 });
        if !ok {
            return Err("OT extension delivered a wrong label".to_string());
        }
        rates.push(n as f64 / s);
    }
    Ok(median(&rates))
}

/// Loopback TCP throughput in MB/s (10^6 bytes): `bytes` sent through
/// `TcpChannel` in `chunk`-byte sends and received in the same chunks.
///
/// # Errors
///
/// Returns a message on a transport failure or corrupted payload.
pub fn tcp_loopback_mb_per_s(bytes: usize, chunk: usize) -> Result<f64, String> {
    let (mut tx, mut rx) = tcp_pair().map_err(|e| e.to_string())?;
    let chunks = bytes.div_ceil(chunk);
    let payload: Vec<u8> = (0..chunk).map(|i| (i % 251) as u8).collect();
    let expect = payload.clone();
    let receiver = std::thread::spawn(move || -> Result<Vec<f64>, String> {
        (0..REPS)
            .map(|_| {
                let (ok, s) = timed(true, "ot.tcp.recv", 0, || -> Result<bool, String> {
                    let mut ok = true;
                    for _ in 0..chunks {
                        ok &= rx.recv(chunk).map_err(|e| e.to_string())? == expect;
                    }
                    Ok(ok)
                });
                match ok? {
                    true => {
                        rx.send_u64(0).map_err(|e| e.to_string())?;
                        rx.flush().map_err(|e| e.to_string())?;
                        Ok((chunks * chunk) as f64 / s / 1e6)
                    }
                    false => Err("loopback payload corrupted".to_string()),
                }
            })
            .collect()
    });
    for _ in 0..REPS {
        for _ in 0..chunks {
            tx.send(&payload).map_err(|e| e.to_string())?;
        }
        tx.flush().map_err(|e| e.to_string())?;
        tx.recv_u64().map_err(|e| e.to_string())?;
    }
    let rates = receiver
        .join()
        .map_err(|_| "loopback receiver panicked".to_string())??;
    Ok(median(&rates))
}

/// Milliseconds per `DhGroup::pow` of the generator to a random exponent.
pub fn modexp_ms(group: &DhGroup, n: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let exps: Vec<_> = (0..n).map(|_| group.random_exponent(&mut rng)).collect();
    let (_, s) = timed(true, "bigint.modexp", 0, || {
        for x in &exps {
            black_box(group.pow(group.generator(), x));
        }
    });
    s * 1e3 / n as f64
}

/// Seconds per `SenderPrecomp::generate_with` (the 128 keypair modexps
/// `ClientSession::setup` pays before its reported span starts).
pub fn sender_precomp_s(group: &DhGroup, pool: ThreadPool, seed: u64) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|rep| {
            let mut rng = StdRng::seed_from_u64(seed ^ rep as u64);
            let (pre, s) = timed(true, "ot.base.sender_precomp", 0, || {
                SenderPrecomp::generate_with(group, &mut rng, pool)
            });
            black_box(pre);
            s
        })
        .collect();
    median(&times)
}
