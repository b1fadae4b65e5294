//! A channel wrapper that counts turnarounds and the time an endpoint
//! waits in receives, without changing a byte on the wire.
//!
//! Every [`Channel`] method is forwarded to the wrapped channel, including
//! the provided ones (`send_blocks`, `recv_bits`, ...), so a transport
//! that overrides them keeps its own implementation under the wrapper.

use std::time::Instant;

use deepsecure_crypto::Block;
use deepsecure_ot::{Channel, ChannelError};

/// One-way latency of the modelled WAN (`NetModel::wan`).
pub const WAN_LATENCY_S: f64 = 0.040;
/// Link rate of the modelled WAN (`NetModel::wan`).
pub const WAN_BITS_PER_S: f64 = 40e6;

/// Transport counters of one endpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counters {
    /// Receives that followed this endpoint's sends (and the first
    /// receive) — the direction changes `SimChannel` charges a latency.
    pub turnarounds: u64,
    /// Seconds spent inside receive calls while timing was on.
    pub recv_wait_s: f64,
    /// Bytes sent.
    pub sent: u64,
    /// Bytes received.
    pub received: u64,
}

impl std::ops::Add for Counters {
    type Output = Counters;
    fn add(self, rhs: Counters) -> Counters {
        Counters {
            turnarounds: self.turnarounds + rhs.turnarounds,
            recv_wait_s: self.recv_wait_s + rhs.recv_wait_s,
            sent: self.sent + rhs.sent,
            received: self.received + rhs.received,
        }
    }
}

impl std::ops::Sub for Counters {
    type Output = Counters;
    fn sub(self, rhs: Counters) -> Counters {
        Counters {
            turnarounds: self.turnarounds - rhs.turnarounds,
            recv_wait_s: self.recv_wait_s - rhs.recv_wait_s,
            sent: self.sent - rhs.sent,
            received: self.received - rhs.received,
        }
    }
}

/// Predicted wall time of a conversation on the modelled WAN: one
/// one-way latency per turnaround of either endpoint plus every byte
/// serialized at the link rate.
pub fn predicted_wan_s(client: &Counters, server: &Counters) -> f64 {
    (client.turnarounds + server.turnarounds) as f64 * WAN_LATENCY_S
        + (client.sent + client.received) as f64 * 8.0 / WAN_BITS_PER_S
}

/// The metering wrapper.
#[derive(Debug)]
pub struct Metered<C> {
    inner: C,
    /// Whether receives are timed (turnarounds and bytes always count).
    pub timing: bool,
    turnaround_pending: bool,
    turnarounds: u64,
    recv_wait_s: f64,
}

impl<C: Channel> Metered<C> {
    /// Wraps `inner` with receive timing off.
    pub fn new(inner: C) -> Metered<C> {
        Metered {
            inner,
            timing: false,
            turnaround_pending: true,
            turnarounds: 0,
            recv_wait_s: 0.0,
        }
    }

    /// The counters so far.
    pub fn counters(&self) -> Counters {
        Counters {
            turnarounds: self.turnarounds,
            recv_wait_s: self.recv_wait_s,
            sent: self.inner.bytes_sent(),
            received: self.inner.bytes_received(),
        }
    }

    fn sending<T>(&mut self, f: impl FnOnce(&mut C) -> T) -> T {
        self.turnaround_pending = true;
        f(&mut self.inner)
    }

    fn receiving<T>(&mut self, f: impl FnOnce(&mut C) -> T) -> T {
        if self.turnaround_pending {
            self.turnaround_pending = false;
            self.turnarounds += 1;
        }
        if !self.timing {
            return f(&mut self.inner);
        }
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        self.recv_wait_s += t0.elapsed().as_secs_f64();
        out
    }
}

impl<C: Channel> Channel for Metered<C> {
    fn send(&mut self, data: &[u8]) -> Result<(), ChannelError> {
        self.sending(|c| c.send(data))
    }

    fn recv(&mut self, n: usize) -> Result<Vec<u8>, ChannelError> {
        self.receiving(|c| c.recv(n))
    }

    fn flush(&mut self) -> Result<(), ChannelError> {
        self.inner.flush()
    }

    fn bytes_sent(&self) -> u64 {
        self.inner.bytes_sent()
    }

    fn bytes_received(&self) -> u64 {
        self.inner.bytes_received()
    }

    fn send_block(&mut self, b: Block) -> Result<(), ChannelError> {
        self.sending(|c| c.send_block(b))
    }

    fn recv_block(&mut self) -> Result<Block, ChannelError> {
        self.receiving(|c| c.recv_block())
    }

    fn send_blocks(&mut self, blocks: &[Block]) -> Result<(), ChannelError> {
        self.sending(|c| c.send_blocks(blocks))
    }

    fn recv_blocks(&mut self, n: usize) -> Result<Vec<Block>, ChannelError> {
        self.receiving(|c| c.recv_blocks(n))
    }

    fn send_u64(&mut self, v: u64) -> Result<(), ChannelError> {
        self.sending(|c| c.send_u64(v))
    }

    fn recv_u64(&mut self) -> Result<u64, ChannelError> {
        self.receiving(|c| c.recv_u64())
    }

    fn send_bytes(&mut self, data: &[u8]) -> Result<(), ChannelError> {
        self.sending(|c| c.send_bytes(data))
    }

    fn recv_bytes(&mut self) -> Result<Vec<u8>, ChannelError> {
        self.receiving(|c| c.recv_bytes())
    }

    fn send_bits(&mut self, bits: &[bool]) -> Result<(), ChannelError> {
        self.sending(|c| c.send_bits(bits))
    }

    fn recv_bits(&mut self) -> Result<Vec<bool>, ChannelError> {
        self.receiving(|c| c.recv_bits())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use deepsecure_core::compile::{folded_mac, CompileOptions, Compiled};
    use deepsecure_core::protocol::{run_compiled_over, InferenceConfig, InferenceReport};
    use deepsecure_core::session::WireBreakdown;
    use deepsecure_ot::tcp_pair;

    use super::*;

    fn mac() -> Arc<Compiled> {
        let opts = CompileOptions::default();
        Arc::new(Compiled {
            circuit: folded_mac(&opts),
            weight_order: Vec::new(),
            format: opts.format,
        })
    }

    fn inputs(compiled: &Compiled, cycles: usize) -> (Vec<Vec<bool>>, Vec<Vec<bool>>) {
        let g = compiled.circuit.garbler_inputs().len();
        let e = compiled.circuit.evaluator_inputs().len();
        let bit = |i: usize, j: usize| (i * 7 + j * 3) % 5 < 2;
        (
            (0..cycles)
                .map(|i| (0..g).map(|j| bit(i, j)).collect())
                .collect(),
            (0..cycles)
                .map(|i| (0..e).map(|j| bit(j, i)).collect())
                .collect(),
        )
    }

    fn cfg(chunk_gates: usize) -> InferenceConfig {
        InferenceConfig {
            seed: 3,
            chunk_gates,
            ..InferenceConfig::default()
        }
    }

    fn labels_and_wire(r: &InferenceReport) -> (Vec<usize>, WireBreakdown) {
        (r.cycle_labels.clone(), r.wire)
    }

    #[test]
    fn wrapper_moves_identical_bytes_and_labels() {
        let compiled = mac();
        let (g, e) = inputs(&compiled, 3);
        for chunk_gates in [0, 8] {
            let (c, s) = tcp_pair().unwrap();
            let bare = run_compiled_over(
                Arc::clone(&compiled),
                g.clone(),
                e.clone(),
                &cfg(chunk_gates),
                c,
                s,
            )
            .unwrap();
            let (c, s) = tcp_pair().unwrap();
            let (mut mc, mut ms) = (Metered::new(c), Metered::new(s));
            mc.timing = true;
            ms.timing = true;
            let wrapped = run_compiled_over(
                Arc::clone(&compiled),
                g.clone(),
                e.clone(),
                &cfg(chunk_gates),
                mc,
                ms,
            )
            .unwrap();
            assert_eq!(labels_and_wire(&bare), labels_and_wire(&wrapped));
            assert_eq!(bare.client_sent, wrapped.client_sent);
            assert_eq!(bare.server_sent, wrapped.server_sent);
        }
    }

    #[test]
    fn turnarounds_count_direction_changes() {
        let (c, s) = tcp_pair().unwrap();
        let (mut a, mut b) = (Metered::new(c), Metered::new(s));
        a.send_u64(1).unwrap();
        a.send_blocks(&[Block::ZERO; 3]).unwrap();
        a.flush().unwrap();
        assert_eq!(b.recv_u64().unwrap(), 1);
        assert_eq!(b.recv_blocks(3).unwrap().len(), 3);
        b.send_bits(&[true, false, true]).unwrap();
        b.flush().unwrap();
        assert_eq!(a.recv_bits().unwrap(), vec![true, false, true]);
        // `b`'s first receive and `a`'s receive after its sends.
        assert_eq!(b.counters().turnarounds, 1);
        assert_eq!(a.counters().turnarounds, 1);
        assert_eq!(a.counters().sent, b.counters().received);
    }
}
