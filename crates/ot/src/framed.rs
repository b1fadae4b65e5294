//! Length-prefixed message framing over any byte [`Channel`].
//!
//! The raw protocol channels are pure byte streams: the receiver always
//! knows exactly how many bytes to expect. Message-oriented layers
//! (handshakes, RPC-style control traffic, future multi-client routing)
//! instead want self-describing frames. [`FramedChannel`] provides both
//! views over one transport: `send_frame`/`recv_frame` move whole
//! messages, while the [`Channel`] impl re-exposes a byte stream whose
//! sends each travel as one frame and whose receives drain frames through
//! an inbox (so a single frame may satisfy several partial reads, and one
//! read may span several frames).

use std::collections::VecDeque;

use crate::channel::{Channel, ChannelError};

/// Upper bound on a frame's payload; a header above this is corrupt
/// framing (e.g. a raw-stream peer), not a real message.
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// Upper bound on a handshake frame's payload. Handshakes are short text
/// lines sent before the peer is known; checking the header against this
/// cap before any payload buffer exists keeps an unauthenticated peer
/// from making the receiver allocate, and wait for, up to
/// [`MAX_FRAME_LEN`] bytes.
pub const MAX_HANDSHAKE_FRAME_LEN: u32 = 4 << 10;

/// A framing wrapper over any byte channel.
///
/// Byte counters delegate to the wrapped channel and therefore include the
/// 4-byte frame headers — they report what actually crossed the wire.
#[derive(Debug)]
pub struct FramedChannel<C: Channel> {
    inner: C,
    inbox: VecDeque<u8>,
}

impl<C: Channel> FramedChannel<C> {
    /// Wraps `inner`; both endpoints of a connection must agree to frame.
    pub fn new(inner: C) -> FramedChannel<C> {
        FramedChannel {
            inner,
            inbox: VecDeque::new(),
        }
    }

    /// Sends one length-prefixed frame (empty payloads are legal).
    ///
    /// # Errors
    ///
    /// Fails if the payload exceeds [`MAX_FRAME_LEN`] or the transport
    /// fails.
    pub fn send_frame(&mut self, payload: &[u8]) -> Result<(), ChannelError> {
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&l| l <= MAX_FRAME_LEN)
            .ok_or_else(|| {
                ChannelError::msg(format!(
                    "sending frame: payload of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
                    payload.len()
                ))
            })?;
        self.inner.send(&len.to_le_bytes())?;
        self.inner.send(payload)
    }

    /// Receives one whole frame.
    ///
    /// # Errors
    ///
    /// Fails on transport failure, a corrupt (oversized) header, or if a
    /// partially drained byte-stream read left bytes in the inbox — the
    /// next header would then be read past buffered data, silently
    /// reordering the stream.
    pub fn recv_frame(&mut self) -> Result<Vec<u8>, ChannelError> {
        self.recv_frame_capped(MAX_FRAME_LEN)
    }

    /// Receives one whole handshake frame: [`FramedChannel::recv_frame`]
    /// with the payload capped at [`MAX_HANDSHAKE_FRAME_LEN`], enforced
    /// on the header before the payload is allocated or read.
    ///
    /// # Errors
    ///
    /// As [`FramedChannel::recv_frame`], plus a header above the cap.
    pub fn recv_handshake_frame(&mut self) -> Result<Vec<u8>, ChannelError> {
        self.recv_frame_capped(MAX_HANDSHAKE_FRAME_LEN)
    }

    fn recv_frame_capped(&mut self, cap: u32) -> Result<Vec<u8>, ChannelError> {
        if !self.inbox.is_empty() {
            return Err(ChannelError::msg(format!(
                "receiving frame: {} byte-stream bytes still buffered from a partial \
                 recv(); draining frames here would reorder the stream",
                self.inbox.len()
            )));
        }
        self.recv_frame_raw(cap)
    }

    /// Reads the next frame (payload at most `cap` bytes) off the wire,
    /// ignoring the inbox (the byte-stream `recv` appends to the inbox, so
    /// ordering holds there).
    fn recv_frame_raw(&mut self, cap: u32) -> Result<Vec<u8>, ChannelError> {
        let header = self.inner.recv(4)?;
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        if len > cap {
            return Err(ChannelError::msg(format!(
                "receiving frame: header claims {len} bytes (cap {cap}) — \
                 corrupt framing or an unframed peer"
            )));
        }
        self.inner.recv(len as usize)
    }

    /// Shared access to the wrapped channel (e.g. for its counters).
    pub fn get_ref(&self) -> &C {
        &self.inner
    }

    /// Unwraps, discarding any partially drained inbox frame.
    pub fn into_inner(self) -> C {
        self.inner
    }
}

impl<C: Channel> Channel for FramedChannel<C> {
    fn send(&mut self, data: &[u8]) -> Result<(), ChannelError> {
        self.send_frame(data)
    }

    fn recv(&mut self, n: usize) -> Result<Vec<u8>, ChannelError> {
        while self.inbox.len() < n {
            let frame = self.recv_frame_raw(MAX_FRAME_LEN)?;
            self.inbox.extend(frame);
        }
        Ok(self.inbox.drain(..n).collect())
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
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use crate::channel::mem_pair;

    use super::*;

    #[test]
    fn whole_frames_roundtrip() {
        let (a, b) = mem_pair();
        let (mut fa, mut fb) = (FramedChannel::new(a), FramedChannel::new(b));
        fa.send_frame(b"alpha").unwrap();
        fa.send_frame(b"").unwrap();
        fa.send_frame(&[7u8; 1000]).unwrap();
        assert_eq!(fb.recv_frame().unwrap(), b"alpha");
        assert_eq!(fb.recv_frame().unwrap(), b"");
        assert_eq!(fb.recv_frame().unwrap(), vec![7u8; 1000]);
        // Counters include the empty payload and the three 4-byte headers.
        assert_eq!(fa.bytes_sent(), 5 + 1000 + 3 * 4);
    }

    #[test]
    fn recv_frame_refuses_to_skip_buffered_stream_bytes() {
        let (a, b) = mem_pair();
        let (mut fa, mut fb) = (FramedChannel::new(a), FramedChannel::new(b));
        fa.send_frame(b"abcd").unwrap();
        fa.send_frame(b"efgh").unwrap();
        assert_eq!(fb.recv(2).unwrap(), b"ab"); // 'cd' now sits in the inbox
        let err = fb.recv_frame().unwrap_err();
        assert!(err.to_string().contains("reorder"), "{err}");
        // The byte-stream view still delivers everything in order.
        assert_eq!(fb.recv(6).unwrap(), b"cdefgh");
    }

    #[test]
    fn oversized_header_is_a_diagnosable_error() {
        let (mut a, b) = mem_pair();
        let mut fb = FramedChannel::new(b);
        // A peer that doesn't frame: raw bytes read as an absurd length.
        a.send(&u32::MAX.to_le_bytes()).unwrap();
        let err = fb.recv_frame().unwrap_err();
        assert!(err.to_string().contains("corrupt framing"), "{err}");
    }

    #[test]
    fn handshake_frames_are_capped_before_the_payload_is_read() {
        let (mut a, b) = mem_pair();
        let mut fb = FramedChannel::new(b);
        let cap = MAX_HANDSHAKE_FRAME_LEN as usize;
        a.send(&(cap as u32).to_le_bytes()).unwrap();
        a.send(&vec![7u8; cap]).unwrap();
        assert_eq!(fb.recv_handshake_frame().unwrap().len(), cap);
        // Only a header claiming 512 MiB: rejected at once, without
        // waiting for (or allocating) a payload that never comes.
        a.send(&(512u32 << 20).to_le_bytes()).unwrap();
        let err = fb.recv_handshake_frame().unwrap_err();
        assert!(err.to_string().contains("cap 4096"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn framing_roundtrips_arbitrary_messages(
            sizes in proptest::collection::vec(0usize..600, 1..12),
            chunk in 1usize..97,
            seed in any::<u64>(),
        ) {
            // Messages of arbitrary sizes (incl. 0) sent as frames, read
            // back through the byte-stream view in fixed `chunk`-sized
            // partial reads that deliberately straddle frame boundaries.
            let (a, b) = mem_pair();
            let (mut fa, mut fb) = (FramedChannel::new(a), FramedChannel::new(b));
            let mut want: Vec<u8> = Vec::new();
            let mut x = seed | 1;
            for (i, &n) in sizes.iter().enumerate() {
                let payload: Vec<u8> = (0..n)
                    .map(|j| {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(j as u64);
                        (x >> 33) as u8
                    })
                    .collect();
                want.extend_from_slice(&payload);
                if i % 2 == 0 {
                    fa.send_frame(&payload).unwrap();
                } else {
                    // The Channel view frames identically.
                    fa.send(&payload).unwrap();
                }
            }
            let mut got: Vec<u8> = Vec::new();
            while got.len() < want.len() {
                let n = chunk.min(want.len() - got.len());
                got.extend(fb.recv(n).unwrap());
            }
            prop_assert_eq!(&got, &want);
            // Wire accounting: payload plus one 4-byte header per frame.
            let wire = want.len() as u64 + 4 * sizes.len() as u64;
            prop_assert_eq!(fa.bytes_sent(), wire);
            prop_assert_eq!(fb.bytes_received(), wire);
        }
    }
}
