//! Incremental NDJSON frame reassembly.
//!
//! The reactor reads whatever the kernel has buffered — which can be
//! half a frame or fifty frames — and feeds the raw chunks to a
//! [`FrameDecoder`], which carves out complete newline-terminated
//! frames while enforcing the wire byte cap ([`MAX_FRAME_BYTES`])
//! *before* any parsing. The decoder is a three-state machine:
//!
//! - **sync**: accumulating a line; a `\n` emits [`DecodedFrame::Line`]
//!   (newline stripped);
//! - **overflow**: the line under construction exceeded the cap; its
//!   bytes are discarded until the next `\n` resynchronizes the stream,
//!   at which point one [`DecodedFrame::TooLong`] is emitted so the
//!   connection can answer with a typed error and keep going;
//! - **finished** ([`FrameDecoder::finish`], at EOF): a non-empty
//!   partial line still gets answered (clients that omit the trailing
//!   newline on their last request are common), but an *overflowed*
//!   partial emits nothing — the peer is gone, and writing a
//!   `frame_too_large` error to a closed socket is wasted work at best
//!   and a write error at worst.
//!
//! The load generator (`experiments loadgen`) reuses this decoder on the
//! client side to reassemble pipelined responses.

use crate::protocol::MAX_FRAME_BYTES;

/// One decoded wire event.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodedFrame {
    /// A complete frame, newline stripped. May be empty (blank keepalive
    /// lines are the caller's business — the daemon skips them without
    /// a response).
    Line(Vec<u8>),
    /// A frame exceeded the byte cap. Emitted exactly once per
    /// oversized line, *after* the stream has resynchronized at the
    /// next newline, so ordering with surrounding frames is preserved.
    TooLong,
}

/// Streaming splitter of a byte stream into capped NDJSON frames.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    overflowed: bool,
    max: usize,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        FrameDecoder::new()
    }
}

impl FrameDecoder {
    /// A decoder enforcing the protocol-wide [`MAX_FRAME_BYTES`] cap.
    pub fn new() -> FrameDecoder {
        FrameDecoder::with_limit(MAX_FRAME_BYTES)
    }

    /// A decoder with an explicit cap (tests use small ones).
    pub fn with_limit(max: usize) -> FrameDecoder {
        FrameDecoder { buf: Vec::new(), overflowed: false, max }
    }

    /// Feeds one raw chunk, appending every frame it completes to
    /// `out` in wire order.
    pub fn push(&mut self, chunk: &[u8], out: &mut Vec<DecodedFrame>) {
        let mut rest = chunk;
        while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
            let (head, tail) = rest.split_at(pos);
            rest = &tail[1..]; // step over the newline
            if self.overflowed {
                self.overflowed = false;
                out.push(DecodedFrame::TooLong);
            } else if self.buf.len() + head.len() > self.max {
                // The completing chunk itself blows the cap: resync is
                // immediate (we are at a newline already).
                self.buf.clear();
                out.push(DecodedFrame::TooLong);
            } else if self.buf.is_empty() {
                out.push(DecodedFrame::Line(head.to_vec()));
            } else {
                let mut line = std::mem::take(&mut self.buf);
                line.extend_from_slice(head);
                out.push(DecodedFrame::Line(line));
            }
        }
        if !rest.is_empty() && !self.overflowed {
            self.buf.extend_from_slice(rest);
            if self.buf.len() > self.max {
                self.buf.clear();
                self.buf.shrink_to_fit();
                self.overflowed = true;
            }
        }
    }

    /// Signals EOF: a pending well-formed partial line is returned for
    /// a final answer; an overflowed partial returns `None` — there is
    /// no peer left to read a `frame_too_large` error.
    pub fn finish(&mut self) -> Option<DecodedFrame> {
        let overflowed = std::mem::replace(&mut self.overflowed, false);
        if overflowed {
            self.buf.clear();
            return None;
        }
        if self.buf.is_empty() {
            None
        } else {
            Some(DecodedFrame::Line(std::mem::take(&mut self.buf)))
        }
    }

    /// Bytes of the partial frame currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Whether an incomplete frame (including an overflowed one still
    /// awaiting its resync newline) is pending.
    pub fn mid_frame(&self) -> bool {
        !self.buf.is_empty() || self.overflowed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(dec: &mut FrameDecoder, chunk: &[u8]) -> Vec<DecodedFrame> {
        let mut out = Vec::new();
        dec.push(chunk, &mut out);
        out
    }

    #[test]
    fn many_frames_in_one_chunk_come_out_in_order() {
        let mut dec = FrameDecoder::new();
        let out = push(&mut dec, b"alpha\nbeta\ngamma\n");
        assert_eq!(
            out,
            vec![
                DecodedFrame::Line(b"alpha".to_vec()),
                DecodedFrame::Line(b"beta".to_vec()),
                DecodedFrame::Line(b"gamma".to_vec()),
            ]
        );
        assert!(!dec.mid_frame());
    }

    #[test]
    fn byte_at_a_time_delivery_reassembles() {
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for &b in b"hello\nworld\n" {
            dec.push(&[b], &mut out);
        }
        assert_eq!(
            out,
            vec![DecodedFrame::Line(b"hello".to_vec()), DecodedFrame::Line(b"world".to_vec())]
        );
    }

    #[test]
    fn split_across_chunks_at_awkward_points() {
        let mut dec = FrameDecoder::new();
        assert!(push(&mut dec, b"par").is_empty());
        assert!(dec.mid_frame());
        assert_eq!(dec.buffered(), 3);
        let out = push(&mut dec, b"tial\nnext");
        assert_eq!(out, vec![DecodedFrame::Line(b"partial".to_vec())]);
        assert_eq!(push(&mut dec, b"\n"), vec![DecodedFrame::Line(b"next".to_vec())]);
    }

    #[test]
    fn exactly_at_the_cap_is_fine_one_over_is_not() {
        let mut dec = FrameDecoder::with_limit(8);
        let out = push(&mut dec, b"12345678\n");
        assert_eq!(out, vec![DecodedFrame::Line(b"12345678".to_vec())]);
        let out = push(&mut dec, b"123456789\n");
        assert_eq!(out, vec![DecodedFrame::TooLong]);
    }

    #[test]
    fn overflow_resyncs_at_the_next_newline_and_emits_once() {
        let mut dec = FrameDecoder::with_limit(4);
        // Oversized line split over several pushes: no event until the
        // resync newline, then exactly one TooLong, then clean frames.
        assert!(push(&mut dec, b"abcdefgh").is_empty());
        assert!(push(&mut dec, b"ijklmnop").is_empty());
        assert!(dec.mid_frame());
        let out = push(&mut dec, b"qr\nok\n");
        assert_eq!(out, vec![DecodedFrame::TooLong, DecodedFrame::Line(b"ok".to_vec())]);
        assert!(!dec.mid_frame());
    }

    #[test]
    fn eof_mid_overflow_is_silent() {
        // Regression (ISSUE 8 satellite): the old byte-at-a-time reader
        // returned TooLong at EOF, making the server write an error
        // frame to a peer that had already hung up.
        let mut dec = FrameDecoder::with_limit(4);
        assert!(push(&mut dec, b"way-too-long-and-never-terminated").is_empty());
        assert_eq!(dec.finish(), None);
        assert!(!dec.mid_frame(), "finish resets the decoder");
    }

    #[test]
    fn eof_with_wellformed_partial_still_answers() {
        let mut dec = FrameDecoder::new();
        assert!(push(&mut dec, b"last-request-no-newline").is_empty());
        assert_eq!(dec.finish(), Some(DecodedFrame::Line(b"last-request-no-newline".to_vec())));
        assert_eq!(dec.finish(), None);
    }

    #[test]
    fn blank_lines_are_lines() {
        let mut dec = FrameDecoder::new();
        let out = push(&mut dec, b"\n\n");
        assert_eq!(
            out,
            vec![DecodedFrame::Line(Vec::new()), DecodedFrame::Line(Vec::new())]
        );
    }
}
