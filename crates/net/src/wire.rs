//! Compact length-prefixed wire protocol for query submit / response.
//!
//! Every frame is `u32` little-endian payload length followed by the
//! payload; the payload's first byte is a tag. Three frame kinds:
//!
//! | tag | direction | payload layout (little-endian)                          |
//! |-----|-----------|---------------------------------------------------------|
//! | 1   | c → s     | tag, id `u64`, tenant `u32`, class `u8`, sel bits `u64` |
//! | 2   | s → c     | tag, id `u64`, output_n `u64`, output_hash `u64`, sojourn `u64` |
//! | 3   | s → c     | tag, id `u64`, sojourn `u64`                            |
//!
//! A SERVED frame's `output_hash` is the executor's hash of the output
//! relation: FNV-1a over its little-endian 8-byte words, with a byte
//! fold for any tail ([`gcm_service::ExecutedQuery::output_hash`]). It
//! is only ever compared with another such hash. Selectivity travels as
//! raw `f64` bits so the round trip is exact — the overload test asserts
//! an identical `output_hash` against a direct [`gcm_service`]
//! execution, which needs bit-equal plans.
//!
//! The decoder is a pure pushdown buffer: feed bytes with
//! [`FrameDecoder::push`], pull frames with [`FrameDecoder::next`].
//! Malformed input (oversized length, unknown tag, wrong payload size,
//! out-of-range class) yields a typed [`WireError`] — never a panic —
//! so a shard can drop exactly the offending connection and keep its
//! poll loop alive. The property suite in `tests/net_wire.rs` hammers
//! this with truncated, oversized, and garbage frames.

use gcm_workload::TenantClass;

/// Largest accepted payload. Real frames are ≤ 33 bytes; anything
/// larger is garbage or an attack, rejected before buffering.
pub const MAX_FRAME: usize = 64;

const TAG_SUBMIT: u8 = 1;
const TAG_SERVED: u8 = 2;
const TAG_SHED: u8 = 3;

const SUBMIT_LEN: usize = 22;
const SERVED_LEN: usize = 33;
const SHED_LEN: usize = 17;

/// A client's query submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitFrame {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Tenant identifier; selects the tenant's table pair server-side.
    pub tenant: u32,
    /// Workload class — determines plan shape, priority, SLO budget.
    pub class: TenantClass,
    /// Predicate selectivity as raw `f64` bits (exact round trip).
    pub selectivity_bits: u64,
}

impl SubmitFrame {
    /// The selectivity as a float.
    pub fn selectivity(&self) -> f64 {
        f64::from_bits(self.selectivity_bits)
    }
}

/// The server's verdict on one submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseFrame {
    /// Executed: result cardinality + content hash (FNV-1a over the
    /// output's 8-byte words), plus queue sojourn (submit → response
    /// enqueue) in wall nanoseconds.
    Served {
        id: u64,
        output_n: u64,
        output_hash: u64,
        sojourn_ns: u64,
    },
    /// Shed by the SLO admission gate before execution.
    Shed { id: u64, sojourn_ns: u64 },
}

impl ResponseFrame {
    /// The correlation id of the submission this answers.
    pub fn id(&self) -> u64 {
        match *self {
            ResponseFrame::Served { id, .. } | ResponseFrame::Shed { id, .. } => id,
        }
    }
}

/// Any decoded frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame {
    Submit(SubmitFrame),
    Response(ResponseFrame),
}

/// Why a byte stream stopped being a valid frame stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Declared payload length exceeds [`MAX_FRAME`].
    Oversized { len: u32 },
    /// First payload byte is not a known tag.
    UnknownTag { tag: u8 },
    /// Payload length disagrees with the tag's fixed layout (zero
    /// length frames land here too, as tag 0 never decodes).
    BadLength { tag: u8, len: u32 },
    /// Class byte outside the [`TenantClass`] range.
    BadClass { value: u8 },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            WireError::Oversized { len } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {MAX_FRAME}-byte cap"
                )
            }
            WireError::UnknownTag { tag } => write!(f, "unknown frame tag {tag}"),
            WireError::BadLength { tag, len } => {
                write!(f, "tag {tag} frame with invalid payload length {len}")
            }
            WireError::BadClass { value } => write!(f, "tenant class byte {value} out of range"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append a submit frame (length prefix included) to `out`.
pub fn encode_submit(frame: &SubmitFrame, out: &mut Vec<u8>) {
    out.extend_from_slice(&(SUBMIT_LEN as u32).to_le_bytes());
    out.push(TAG_SUBMIT);
    out.extend_from_slice(&frame.id.to_le_bytes());
    out.extend_from_slice(&frame.tenant.to_le_bytes());
    out.push(frame.class.index());
    out.extend_from_slice(&frame.selectivity_bits.to_le_bytes());
}

/// Append a response frame (length prefix included) to `out`.
pub fn encode_response(frame: &ResponseFrame, out: &mut Vec<u8>) {
    match *frame {
        ResponseFrame::Served {
            id,
            output_n,
            output_hash,
            sojourn_ns,
        } => {
            out.extend_from_slice(&(SERVED_LEN as u32).to_le_bytes());
            out.push(TAG_SERVED);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&output_n.to_le_bytes());
            out.extend_from_slice(&output_hash.to_le_bytes());
            out.extend_from_slice(&sojourn_ns.to_le_bytes());
        }
        ResponseFrame::Shed { id, sojourn_ns } => {
            out.extend_from_slice(&(SHED_LEN as u32).to_le_bytes());
            out.push(TAG_SHED);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&sojourn_ns.to_le_bytes());
        }
    }
}

fn u64_at(payload: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(payload[at..at + 8].try_into().unwrap())
}

fn decode_payload(payload: &[u8]) -> Result<Frame, WireError> {
    let tag = payload[0];
    let len = payload.len() as u32;
    match tag {
        TAG_SUBMIT => {
            if payload.len() != SUBMIT_LEN {
                return Err(WireError::BadLength { tag, len });
            }
            let class_byte = payload[13];
            let class = TenantClass::from_index(class_byte)
                .ok_or(WireError::BadClass { value: class_byte })?;
            Ok(Frame::Submit(SubmitFrame {
                id: u64_at(payload, 1),
                tenant: u32::from_le_bytes(payload[9..13].try_into().unwrap()),
                class,
                selectivity_bits: u64_at(payload, 14),
            }))
        }
        TAG_SERVED => {
            if payload.len() != SERVED_LEN {
                return Err(WireError::BadLength { tag, len });
            }
            Ok(Frame::Response(ResponseFrame::Served {
                id: u64_at(payload, 1),
                output_n: u64_at(payload, 9),
                output_hash: u64_at(payload, 17),
                sojourn_ns: u64_at(payload, 25),
            }))
        }
        TAG_SHED => {
            if payload.len() != SHED_LEN {
                return Err(WireError::BadLength { tag, len });
            }
            Ok(Frame::Response(ResponseFrame::Shed {
                id: u64_at(payload, 1),
                sojourn_ns: u64_at(payload, 9),
            }))
        }
        other => Err(WireError::UnknownTag { tag: other }),
    }
}

/// Incremental frame decoder over an untrusted byte stream.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    start: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Feed bytes read from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Pull the next complete frame. `Ok(None)` means more bytes are
    /// needed; `Err` means the stream is corrupt and the connection
    /// should be dropped (the decoder makes no attempt to resync).
    /// Not an `Iterator`: the fallible tri-state return has no clean
    /// `Option<Item>` shape.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Frame>, WireError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap());
        if len == 0 {
            return Err(WireError::BadLength { tag: 0, len });
        }
        // Reject a hostile length before waiting for (or allocating)
        // the payload.
        if len as usize > MAX_FRAME {
            return Err(WireError::Oversized { len });
        }
        if avail.len() < 4 + len as usize {
            return Ok(None);
        }
        let frame = decode_payload(&avail[4..4 + len as usize])?;
        self.start += 4 + len as usize;
        // Reclaim consumed prefix once it dominates the buffer.
        if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit() -> SubmitFrame {
        SubmitFrame {
            id: 42,
            tenant: 7,
            class: TenantClass::JoinHeavy,
            selectivity_bits: 0.375f64.to_bits(),
        }
    }

    #[test]
    fn frames_round_trip_byte_for_byte() {
        let frames = [
            Frame::Submit(submit()),
            Frame::Response(ResponseFrame::Served {
                id: 42,
                output_n: 1_000,
                output_hash: 0xdead_beef_cafe_f00d,
                sojourn_ns: 250_000,
            }),
            Frame::Response(ResponseFrame::Shed {
                id: 43,
                sojourn_ns: 9_999,
            }),
        ];
        let mut bytes = Vec::new();
        for f in &frames {
            match f {
                Frame::Submit(s) => encode_submit(s, &mut bytes),
                Frame::Response(r) => encode_response(r, &mut bytes),
            }
        }
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        for want in &frames {
            assert_eq!(dec.next().unwrap(), Some(*want));
        }
        assert_eq!(dec.next().unwrap(), None);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn partial_delivery_one_byte_at_a_time() {
        let mut bytes = Vec::new();
        encode_submit(&submit(), &mut bytes);
        let mut dec = FrameDecoder::new();
        for (i, b) in bytes.iter().enumerate() {
            dec.push(std::slice::from_ref(b));
            let got = dec.next().unwrap();
            if i + 1 < bytes.len() {
                assert_eq!(got, None, "frame complete too early at byte {i}");
            } else {
                assert_eq!(got, Some(Frame::Submit(submit())));
            }
        }
    }

    #[test]
    fn hostile_inputs_error_without_panicking() {
        // Oversized declared length: rejected from the prefix alone.
        let mut dec = FrameDecoder::new();
        dec.push(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert_eq!(
            dec.next(),
            Err(WireError::Oversized {
                len: MAX_FRAME as u32 + 1
            })
        );

        // Zero-length frame.
        let mut dec = FrameDecoder::new();
        dec.push(&0u32.to_le_bytes());
        assert_eq!(dec.next(), Err(WireError::BadLength { tag: 0, len: 0 }));

        // Unknown tag.
        let mut dec = FrameDecoder::new();
        dec.push(&1u32.to_le_bytes());
        dec.push(&[9]);
        assert_eq!(dec.next(), Err(WireError::UnknownTag { tag: 9 }));

        // Submit frame with a class byte out of range.
        let mut bytes = Vec::new();
        encode_submit(&submit(), &mut bytes);
        bytes[4 + 13] = 3;
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert_eq!(dec.next(), Err(WireError::BadClass { value: 3 }));

        // Right tag, wrong payload size.
        let mut dec = FrameDecoder::new();
        dec.push(&2u32.to_le_bytes());
        dec.push(&[TAG_SERVED, 0]);
        assert_eq!(
            dec.next(),
            Err(WireError::BadLength {
                tag: TAG_SERVED,
                len: 2
            })
        );
    }

    #[test]
    fn selectivity_bits_survive_exactly() {
        for sel in [0.002, 0.01, 0.25, 0.5, 1.0, f64::MIN_POSITIVE] {
            let f = SubmitFrame {
                id: 1,
                tenant: 0,
                class: TenantClass::PointLookup,
                selectivity_bits: sel.to_bits(),
            };
            let mut bytes = Vec::new();
            encode_submit(&f, &mut bytes);
            let mut dec = FrameDecoder::new();
            dec.push(&bytes);
            match dec.next().unwrap().unwrap() {
                Frame::Submit(got) => assert_eq!(got.selectivity().to_bits(), sel.to_bits()),
                other => panic!("wrong frame {other:?}"),
            }
        }
    }

    #[test]
    fn decoder_compacts_its_buffer() {
        let mut one = Vec::new();
        encode_submit(&submit(), &mut one);
        let mut dec = FrameDecoder::new();
        // Push enough frames that the consumed prefix passes the 4 KiB
        // compaction threshold and is reclaimed.
        for _ in 0..400 {
            dec.push(&one);
        }
        let mut n = 0;
        while let Some(_f) = dec.next().unwrap() {
            n += 1;
        }
        assert_eq!(n, 400);
        assert!(
            dec.start < 4096,
            "consumed prefix should have been reclaimed"
        );
    }
}
