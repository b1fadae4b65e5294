//! Garbler and evaluator on two threads over `ot::tcp_pair()`, with each
//! call into `core::session` timed from outside.
//!
//! A [`Pair`] is one session: [`Pair::connect`] runs both base-OT setups,
//! [`Pair::infer`] runs one online inference with live garbling. The
//! one-shot workload opens a pair per inference; the warm workload keeps
//! one pair for the whole run.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use deepsecure_core::compile::Compiled;
use deepsecure_core::protocol::{InferenceConfig, ProtocolError};
use deepsecure_core::session::{
    ClientSession, ClientSetup, MaterialSource, ServerSession, WireBreakdown,
};
use deepsecure_ot::{tcp_pair, Channel, ChannelError, TcpChannel};

use crate::trace::timed;
use crate::transport::{Counters, Metered};

/// Setup timings of one pair.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    /// `ClientSession::setup`, timed from outside (keypairs included).
    pub client_s: f64,
    /// The program's own `ClientSetup.span`, which starts after the
    /// keypair modexps.
    pub reported_s: f64,
    /// Base-OT bytes, both directions.
    pub base_ot_bytes: u64,
    /// Client endpoint transport counters over the set-up.
    pub client_io: Counters,
    /// Server endpoint transport counters over the set-up.
    pub server_io: Counters,
}

/// One online inference.
#[derive(Clone, Debug)]
pub struct Inference {
    /// Decoded label (client side).
    pub label: usize,
    /// The client's per-phase wire breakdown.
    pub wire: WireBreakdown,
    /// The server's per-phase wire breakdown.
    pub server_wire: WireBreakdown,
    /// `ClientSession::run_online`, timed from outside.
    pub client_online_s: f64,
    /// Wall time from the start of the call until both parties are done.
    pub wall_s: f64,
    /// Client endpoint transport counters over this inference.
    pub client_io: Counters,
    /// Server endpoint transport counters over this inference.
    pub server_io: Counters,
}

struct ServerDone {
    wire: WireBreakdown,
    io: Counters,
}

/// One live session between a garbler and an evaluator thread.
pub struct Pair {
    client: ClientSession,
    setup: ClientSetup,
    chan: Metered<TcpChannel>,
    cmd: Sender<(bool, u64)>,
    done: Receiver<Result<ServerDone, ProtocolError>>,
    server: JoinHandle<()>,
    epoch: Instant,
}

impl Pair {
    /// Opens a loopback connection and runs both base-OT setups; the
    /// evaluator holds `weight_bits` for every later inference.
    ///
    /// # Errors
    ///
    /// Fails on a socket or protocol error of either party.
    pub fn connect(
        compiled: &Arc<Compiled>,
        cfg: &InferenceConfig,
        weight_bits: Arc<Vec<Vec<bool>>>,
        traced: bool,
        req: u64,
    ) -> Result<(Pair, SetupTimes), ProtocolError> {
        let epoch = Instant::now();
        let (cc, sc) = tcp_pair().map_err(|e| ChannelError::io("opening tcp_pair", e))?;
        let (cmd, cmd_rx) = channel::<(bool, u64)>();
        let (done_tx, done) = channel();
        let (ready_tx, ready) = channel();
        let server_session = ServerSession::new(Arc::clone(compiled), cfg);
        let server = std::thread::spawn(move || {
            let mut sc = Metered::new(sc);
            sc.timing = traced;
            // Each set-up may end on a buffered send that the protocol
            // flushes with its next receive; both sides flush here because
            // each waits for the other between set-up and the first
            // inference.
            let (setup, setup_s) = timed(traced, "core.session.server_setup", req, || {
                let setup = server_session.setup(&mut sc)?;
                sc.flush()?;
                Ok(setup)
            });
            let mut setup = match setup {
                Ok(s) => {
                    let _ = ready_tx.send(Ok((setup_s, sc.counters())));
                    s
                }
                Err(e) => {
                    let _ = ready_tx.send(Err(e));
                    return;
                }
            };
            while let Ok((traced, req)) = cmd_rx.recv() {
                sc.timing = traced;
                let before = sc.counters();
                let (out, _) = timed(traced, "core.session.server_online", req, || {
                    server_session.run_online(&mut sc, &mut setup, &weight_bits, epoch)
                });
                let failed = out.is_err();
                let _ = done_tx.send(out.map(|o| ServerDone {
                    wire: o.wire,
                    io: sc.counters() - before,
                }));
                if failed {
                    return;
                }
            }
        });
        let client = ClientSession::new(Arc::clone(compiled), cfg);
        let mut chan = Metered::new(cc);
        chan.timing = traced;
        let (setup, client_s) = timed(traced, "core.session.client_setup", req, || {
            let setup = client.setup(&mut chan, epoch)?;
            chan.flush()?;
            Ok(setup)
        });
        let server_io = match (setup.is_ok(), ready.recv()) {
            (true, Ok(Ok((_, io)))) => io,
            (_, Ok(Err(e))) => {
                drop(chan);
                let _ = server.join();
                return Err(e);
            }
            _ => {
                drop(chan);
                let _ = server.join();
                return Err(setup.err().unwrap_or(ProtocolError::PartyPanic("server")));
            }
        };
        let setup = setup?;
        let times = SetupTimes {
            client_s,
            reported_s: setup.span.duration_s(),
            base_ot_bytes: setup.base_ot_bytes(),
            client_io: chan.counters(),
            server_io,
        };
        Ok((
            Pair {
                client,
                setup,
                chan,
                cmd,
                done,
                server,
                epoch,
            },
            times,
        ))
    }

    /// Runs one online inference on garbler input `g_bits`, garbling
    /// live from `garble_seed` while the tables stream.
    ///
    /// # Errors
    ///
    /// Fails on a protocol error of either party; the pair is then dead.
    pub fn infer(
        &mut self,
        g_bits: &[Vec<bool>],
        garble_seed: u64,
        traced: bool,
        req: u64,
    ) -> Result<Inference, ProtocolError> {
        let t0 = Instant::now();
        self.cmd
            .send((traced, req))
            .map_err(|_| ProtocolError::PartyPanic("server"))?;
        self.chan.timing = traced;
        let before = self.chan.counters();
        let source = MaterialSource::Live {
            n_cycles: g_bits.len(),
            seed: garble_seed,
        };
        let (out, client_online_s) = timed(traced, "core.session.client_online", req, || {
            self.client
                .run_online(&mut self.chan, &mut self.setup, source, g_bits, self.epoch)
        });
        let client_io = self.chan.counters() - before;
        let out = out?;
        let server = self
            .done
            .recv()
            .map_err(|_| ProtocolError::PartyPanic("server"))??;
        Ok(Inference {
            label: out.label,
            wire: out.wire,
            server_wire: server.wire,
            client_online_s,
            wall_s: t0.elapsed().as_secs_f64(),
            client_io,
            server_io: server.io,
        })
    }

    /// Ends the session and joins the evaluator thread.
    ///
    /// # Errors
    ///
    /// Fails when the evaluator thread panicked.
    pub fn finish(self) -> Result<(), ProtocolError> {
        let Pair {
            chan, cmd, server, ..
        } = self;
        drop(cmd);
        drop(chan);
        server
            .join()
            .map_err(|_| ProtocolError::PartyPanic("server"))
    }
}

#[cfg(test)]
mod tests {
    use deepsecure_core::compile::{folded_mac, CompileOptions};
    use deepsecure_core::protocol::run_compiled;

    use super::*;

    #[test]
    fn pair_matches_the_program_runner_and_meters_every_byte() {
        let opts = CompileOptions::default();
        let compiled = Arc::new(Compiled {
            circuit: folded_mac(&opts),
            weight_order: Vec::new(),
            format: opts.format,
        });
        let g_arity = compiled.circuit.garbler_inputs().len();
        let e_arity = compiled.circuit.evaluator_inputs().len();
        let g: Vec<Vec<bool>> = (0..3)
            .map(|c| (0..g_arity).map(|i| (i + c) % 3 == 0).collect())
            .collect();
        let e: Vec<Vec<bool>> = (0..3)
            .map(|c| (0..e_arity).map(|i| (i * c) % 4 == 1).collect())
            .collect();
        let cfg = InferenceConfig {
            chunk_gates: 8,
            ..InferenceConfig::default()
        };
        let reference = run_compiled(Arc::clone(&compiled), g.clone(), e.clone(), &cfg).unwrap();
        let (mut pair, setup) = Pair::connect(&compiled, &cfg, Arc::new(e), true, 0).unwrap();
        assert_eq!(setup.base_ot_bytes, reference.wire.base_ot);
        assert_eq!(
            setup.client_io.sent + setup.client_io.received,
            setup.base_ot_bytes
        );
        for req in 1..3 {
            let inf = pair.infer(&g, req, req % 2 == 0, req).unwrap();
            assert_eq!(inf.label, reference.label);
            assert_eq!(inf.wire, inf.server_wire);
            assert_eq!(
                inf.wire.total(),
                reference.wire.total() - reference.wire.base_ot
            );
            assert_eq!(
                inf.client_io.sent + inf.client_io.received,
                inf.wire.total()
            );
            assert_eq!(inf.client_io.sent, inf.server_io.received);
        }
        pair.finish().unwrap();
    }
}
