//! Versioned length-prefixed binary wire protocol.
//!
//! Every message travels as one **frame**: a `u32` little-endian payload
//! length followed by the payload. Payloads open with a version byte
//! ([`PROTOCOL_VERSION`]) and an opcode / status byte; all multi-byte
//! integers are little-endian and all floats are IEEE-754 `f32` bit
//! patterns, written and read with `edsr-wire`'s payload codec like every
//! other binary format, so a round-trip is bit-identical by construction.
//!
//! Decoding is total: truncated, oversized, or corrupt payloads come back
//! as a structured [`ProtocolError`], never a panic (property-tested in
//! this module's tests), and a vector or neighbour count is checked
//! against the bytes left before anything is allocated for it.
//!
//! ```text
//! request  := version:u8 opcode:u8 body
//!   embed(1)    := task:u32 dim:u32 f32*dim
//!   knn(2)      := k:u32 metric:u8 dim:u32 f32*dim
//!   stats(3)    := (empty)
//!   shutdown(4) := (empty)
//! response := version:u8 status:u8 opcode:u8 body
//!   status 0 (ok):
//!     embed     := dim:u32 f32*dim
//!     knn       := n:u32 (index:u64 score:f32)*n
//!     stats     := 12 x u64 (see [`StatsReply`])
//!     shutdown  := (empty)
//!   status 1 (error) := code:u16 retry_after_ms:u32 len:u32 utf8*len
//! ```
//!
//! Version 2 added `retry_after_ms` to error responses (the backpressure
//! hint honoured by the retrying client) and the rotation/rejection
//! counters to the stats body. Version 3 appended the `quantized` flag
//! to the stats body (1 when the engine answers on the int8 backend) —
//! `edsr query --quantized` keys off it. Older peers are rejected with
//! [`ProtocolError::BadVersion`] rather than misparsed.

use std::fmt;
use std::io::{Read, Write};

use edsr_wire::{put_f32, put_f32s, put_u16, put_u32, put_u64, DecodeError, Reader};

/// Wire protocol version carried in every payload.
pub const PROTOCOL_VERSION: u8 = 3;

/// Hard cap on a frame payload (16 MiB): anything larger is rejected
/// before allocation, so a corrupt length prefix cannot OOM the server.
/// Shared with every wire consumer through `edsr-wire`.
pub const MAX_FRAME: usize = edsr_wire::MAX_FRAME;

/// Request opcodes.
pub const OP_EMBED: u8 = 1;
/// kNN retrieval over the snapshot's replay-memory representations.
pub const OP_KNN: u8 = 2;
/// Server/engine counters.
pub const OP_STATS: u8 = 3;
/// Graceful shutdown: drain in-flight requests, then stop accepting.
pub const OP_SHUTDOWN: u8 = 4;

/// Error codes carried by error responses.
pub const ERR_BAD_REQUEST: u16 = 1;
/// The server is draining and no longer accepts work.
pub const ERR_SHUTTING_DOWN: u16 = 2;
/// Internal failure while answering (details in the message).
pub const ERR_INTERNAL: u16 = 3;
/// The request sat in the batch queue past its deadline and was dropped
/// unanswered by the engine (`edsr serve --serve-deadline-ms`).
pub const ERR_DEADLINE: u16 = 4;
/// The bounded submit queue was full; the response carries a
/// `retry_after_ms` hint and the request was shed without blocking.
pub const ERR_OVERLOADED: u16 = 5;

/// Neighbour metric selector on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMetric {
    /// Squared Euclidean distance (smaller = closer).
    Euclidean,
    /// Cosine similarity (larger = closer).
    Cosine,
}

impl WireMetric {
    fn to_byte(self) -> u8 {
        match self {
            WireMetric::Euclidean => 0,
            WireMetric::Cosine => 1,
        }
    }

    fn from_byte(b: u8) -> Result<Self, ProtocolError> {
        match b {
            0 => Ok(WireMetric::Euclidean),
            1 => Ok(WireMetric::Cosine),
            other => Err(ProtocolError::BadMetric(other)),
        }
    }
}

impl From<WireMetric> for edsr_linalg::Metric {
    fn from(m: WireMetric) -> Self {
        match m {
            WireMetric::Euclidean => edsr_linalg::Metric::Euclidean,
            WireMetric::Cosine => edsr_linalg::Metric::Cosine,
        }
    }
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Embed one input vector through the snapshot encoder.
    Embed {
        /// Adapter/task index the input belongs to.
        task: u32,
        /// Raw input features.
        input: Vec<f32>,
    },
    /// k nearest stored replay representations to `query`.
    Knn {
        /// Neighbour count (clamped server-side to the memory size).
        k: u32,
        /// Distance/similarity metric.
        metric: WireMetric,
        /// Query representation (`repr_dim` wide).
        query: Vec<f32>,
    },
    /// Server counters.
    Stats,
    /// Graceful drain + stop.
    Shutdown,
}

/// One retrieved neighbour on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireNeighbor {
    /// Row index into the snapshot's memory representations.
    pub index: u64,
    /// Metric score (cosine similarity or squared Euclidean distance).
    pub score: f32,
}

/// Counters answered to a [`Request::Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// Requests answered (all opcodes).
    pub requests: u64,
    /// Batched forward passes executed.
    pub batches: u64,
    /// Embed requests that went through a batched forward.
    pub batched_requests: u64,
    /// Largest single coalesced batch so far.
    pub max_batch: u64,
    /// Embedding-cache hits.
    pub cache_hits: u64,
    /// Embedding-cache misses.
    pub cache_misses: u64,
    /// Rows in the replay-memory retrieval set.
    pub memory_rows: u64,
    /// Representation dimensionality served.
    pub repr_dim: u64,
    /// Completed live snapshot rotations (engine swaps).
    pub rotations: u64,
    /// Requests rejected because they aged past the batcher deadline.
    pub rejected_deadline: u64,
    /// Requests shed because the bounded submit queue was full.
    pub rejected_overload: u64,
    /// 1 when the engine answers on the int8 quantized backend, else 0.
    pub quantized: u64,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Embedding for an [`Request::Embed`].
    Embedding(Vec<f32>),
    /// Neighbours for a [`Request::Knn`], closest first.
    Neighbors(Vec<WireNeighbor>),
    /// Counters for a [`Request::Stats`].
    Stats(StatsReply),
    /// The server acknowledged a [`Request::Shutdown`] and is draining.
    ShutdownAck,
    /// The request was rejected or failed.
    Error {
        /// One of the `ERR_*` codes.
        code: u16,
        /// Backpressure hint in milliseconds: how long the client should
        /// wait before retrying. Zero means "no hint"; only
        /// [`ERR_OVERLOADED`] responses carry a non-zero value today.
        retry_after_ms: u32,
        /// Human-readable reason.
        message: String,
    },
}

/// Structured decode/transport failure. Every malformed input maps here;
/// the decoder never panics.
#[derive(Debug)]
pub enum ProtocolError {
    /// Underlying socket/file error.
    Io(std::io::Error),
    /// The payload ended before a field it promised.
    Truncated {
        /// Bytes the field needed.
        expected: usize,
        /// Bytes left in the payload.
        got: usize,
    },
    /// Version byte differs from [`PROTOCOL_VERSION`].
    BadVersion(u8),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Unknown metric byte.
    BadMetric(u8),
    /// Unknown response status byte.
    BadStatus(u8),
    /// Frame length prefix exceeds [`MAX_FRAME`].
    TooLarge(usize),
    /// Structurally invalid payload (reason attached).
    Malformed(&'static str),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "protocol i/o: {e}"),
            ProtocolError::Truncated { expected, got } => {
                write!(
                    f,
                    "truncated payload: field needs {expected} bytes, {got} left"
                )
            }
            ProtocolError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (expected {PROTOCOL_VERSION})"
                )
            }
            ProtocolError::BadOpcode(op) => write!(f, "unknown opcode {op}"),
            ProtocolError::BadMetric(m) => write!(f, "unknown metric {m}"),
            ProtocolError::BadStatus(s) => write!(f, "unknown response status {s}"),
            ProtocolError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            ProtocolError::Malformed(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

impl From<edsr_wire::FrameError> for ProtocolError {
    fn from(e: edsr_wire::FrameError) -> Self {
        match e {
            edsr_wire::FrameError::Io(e) => ProtocolError::Io(e),
            edsr_wire::FrameError::Truncated { expected, got } => {
                ProtocolError::Truncated { expected, got }
            }
            edsr_wire::FrameError::TooLarge(n) => ProtocolError::TooLarge(n),
        }
    }
}

impl From<DecodeError> for ProtocolError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated { expected, got } => ProtocolError::Truncated { expected, got },
            DecodeError::Trailing(_) => ProtocolError::Malformed("trailing bytes after message"),
        }
    }
}

/// A `dim:u32` + `f32*dim` vector.
fn put_vector(buf: &mut Vec<u8>, v: &[f32]) {
    put_u32(buf, v.len() as u32);
    put_f32s(buf, v);
}

fn read_vector(r: &mut Reader<'_>) -> Result<Vec<f32>, DecodeError> {
    let dim = r.u32()?;
    r.f32s(dim.into())
}

// ---------------------------------------------------------------------------
// Message codecs.

impl Request {
    /// Appends the encoded payload (version + opcode + body) to `buf`
    /// (cleared first). Reusing one buffer keeps steady-state encoding
    /// allocation-free.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.clear();
        buf.push(PROTOCOL_VERSION);
        match self {
            Request::Embed { task, input } => {
                buf.push(OP_EMBED);
                put_u32(buf, *task);
                put_vector(buf, input);
            }
            Request::Knn { k, metric, query } => {
                buf.push(OP_KNN);
                put_u32(buf, *k);
                buf.push(metric.to_byte());
                put_vector(buf, query);
            }
            Request::Stats => buf.push(OP_STATS),
            Request::Shutdown => buf.push(OP_SHUTDOWN),
        }
    }

    /// Encodes into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Decodes one request payload.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut c = Reader::new(payload);
        let version = c.u8()?;
        if version != PROTOCOL_VERSION {
            return Err(ProtocolError::BadVersion(version));
        }
        let req = match c.u8()? {
            OP_EMBED => Request::Embed {
                task: c.u32()?,
                input: read_vector(&mut c)?,
            },
            OP_KNN => Request::Knn {
                k: c.u32()?,
                metric: WireMetric::from_byte(c.u8()?)?,
                query: read_vector(&mut c)?,
            },
            OP_STATS => Request::Stats,
            OP_SHUTDOWN => Request::Shutdown,
            other => return Err(ProtocolError::BadOpcode(other)),
        };
        c.finish()?;
        Ok(req)
    }

    /// The opcode this request travels under (echoed in responses).
    pub fn opcode(&self) -> u8 {
        match self {
            Request::Embed { .. } => OP_EMBED,
            Request::Knn { .. } => OP_KNN,
            Request::Stats => OP_STATS,
            Request::Shutdown => OP_SHUTDOWN,
        }
    }
}

impl Response {
    /// Appends the encoded payload to `buf` (cleared first). `opcode` is
    /// the request opcode being answered; error responses echo it too so
    /// pipelined clients can match replies to requests.
    pub fn encode_into(&self, opcode: u8, buf: &mut Vec<u8>) {
        buf.clear();
        buf.push(PROTOCOL_VERSION);
        match self {
            Response::Error {
                code,
                retry_after_ms,
                message,
            } => {
                buf.push(1);
                buf.push(opcode);
                put_u16(buf, *code);
                put_u32(buf, *retry_after_ms);
                put_u32(buf, message.len() as u32);
                buf.extend_from_slice(message.as_bytes());
            }
            ok => {
                buf.push(0);
                buf.push(opcode);
                match ok {
                    Response::Embedding(v) => put_vector(buf, v),
                    Response::Neighbors(ns) => {
                        put_u32(buf, ns.len() as u32);
                        for n in ns {
                            put_u64(buf, n.index);
                            put_f32(buf, n.score);
                        }
                    }
                    Response::Stats(s) => {
                        for v in [
                            s.requests,
                            s.batches,
                            s.batched_requests,
                            s.max_batch,
                            s.cache_hits,
                            s.cache_misses,
                            s.memory_rows,
                            s.repr_dim,
                            s.rotations,
                            s.rejected_deadline,
                            s.rejected_overload,
                            s.quantized,
                        ] {
                            put_u64(buf, v);
                        }
                    }
                    Response::ShutdownAck => {}
                    Response::Error { .. } => unreachable!("handled above"),
                }
            }
        }
    }

    /// Encodes into a fresh buffer.
    pub fn encode(&self, opcode: u8) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(opcode, &mut buf);
        buf
    }

    /// Decodes one response payload; returns the echoed opcode too.
    pub fn decode(payload: &[u8]) -> Result<(u8, Self), ProtocolError> {
        let mut c = Reader::new(payload);
        let version = c.u8()?;
        if version != PROTOCOL_VERSION {
            return Err(ProtocolError::BadVersion(version));
        }
        let status = c.u8()?;
        let opcode = c.u8()?;
        let resp = match status {
            1 => {
                let code = c.u16()?;
                let retry_after_ms = c.u32()?;
                let len = c.u32()? as usize;
                let message = String::from_utf8(c.take(len)?.to_vec())
                    .map_err(|_| ProtocolError::Malformed("error message is not utf-8"))?;
                Response::Error {
                    code,
                    retry_after_ms,
                    message,
                }
            }
            0 => match opcode {
                OP_EMBED => Response::Embedding(read_vector(&mut c)?),
                OP_KNN => {
                    let n = c.u32()?;
                    // A neighbour is a u64 index and an f32 score.
                    let mut ns = Vec::with_capacity(c.count(n.into(), 12)?);
                    for _ in 0..n {
                        ns.push(WireNeighbor {
                            index: c.u64()?,
                            score: c.f32()?,
                        });
                    }
                    Response::Neighbors(ns)
                }
                OP_STATS => Response::Stats(StatsReply {
                    requests: c.u64()?,
                    batches: c.u64()?,
                    batched_requests: c.u64()?,
                    max_batch: c.u64()?,
                    cache_hits: c.u64()?,
                    cache_misses: c.u64()?,
                    memory_rows: c.u64()?,
                    repr_dim: c.u64()?,
                    rotations: c.u64()?,
                    rejected_deadline: c.u64()?,
                    rejected_overload: c.u64()?,
                    quantized: c.u64()?,
                }),
                OP_SHUTDOWN => Response::ShutdownAck,
                other => return Err(ProtocolError::BadOpcode(other)),
            },
            other => return Err(ProtocolError::BadStatus(other)),
        };
        c.finish()?;
        Ok((opcode, resp))
    }
}

// ---------------------------------------------------------------------------
// Framing — the shared `edsr-wire` implementation, surfaced with this
// protocol's error type so existing callers and tests are unchanged.

/// Writes one `u32`-length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtocolError> {
    edsr_wire::write_frame(w, payload).map_err(ProtocolError::from)
}

/// Reads one frame's payload into `buf` (cleared and resized; reusing one
/// buffer keeps steady-state reads allocation-free). Returns `Ok(false)`
/// on clean EOF before any length byte; propagates everything else.
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<bool, ProtocolError> {
    edsr_wire::read_frame(r, buf).map_err(ProtocolError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_f32() -> impl Strategy<Value = f32> {
        // Bit-pattern driven so NaNs/infinities/denormals are covered;
        // round-trips compare bits, not values.
        any::<u32>().prop_map(f32::from_bits)
    }

    fn arb_vec() -> impl Strategy<Value = Vec<f32>> {
        proptest::collection::vec(arb_f32(), 0..64)
    }

    fn arb_request() -> impl Strategy<Value = Request> {
        prop_oneof![
            (any::<u32>(), arb_vec()).prop_map(|(task, input)| Request::Embed { task, input }),
            (any::<u32>(), any::<bool>(), arb_vec()).prop_map(|(k, cos, query)| Request::Knn {
                k,
                metric: if cos {
                    WireMetric::Cosine
                } else {
                    WireMetric::Euclidean
                },
                query,
            }),
            Just(Request::Stats),
            Just(Request::Shutdown),
        ]
    }

    fn arb_response() -> impl Strategy<Value = (u8, Response)> {
        prop_oneof![
            arb_vec().prop_map(|v| (OP_EMBED, Response::Embedding(v))),
            proptest::collection::vec((any::<u64>(), arb_f32()), 0..32).prop_map(|ns| (
                OP_KNN,
                Response::Neighbors(
                    ns.into_iter()
                        .map(|(index, score)| WireNeighbor { index, score })
                        .collect(),
                )
            )),
            proptest::collection::vec(any::<u64>(), 12).prop_map(|v| (
                OP_STATS,
                Response::Stats(StatsReply {
                    requests: v[0],
                    batches: v[1],
                    batched_requests: v[2],
                    max_batch: v[3],
                    cache_hits: v[4],
                    cache_misses: v[5],
                    memory_rows: v[6],
                    repr_dim: v[7],
                    rotations: v[8],
                    rejected_deadline: v[9],
                    rejected_overload: v[10],
                    quantized: v[11],
                })
            )),
            Just((OP_SHUTDOWN, Response::ShutdownAck)),
            (
                proptest::collection::vec(32u8..127, 0..40),
                any::<u16>(),
                any::<u32>()
            )
                .prop_map(|(bytes, code, retry_after_ms)| {
                    let message = String::from_utf8(bytes).expect("printable ascii");
                    (
                        OP_EMBED,
                        Response::Error {
                            code,
                            retry_after_ms,
                            message,
                        },
                    )
                }),
        ]
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn requests_bit_eq(a: &Request, b: &Request) -> bool {
        match (a, b) {
            (
                Request::Embed {
                    task: t1,
                    input: i1,
                },
                Request::Embed {
                    task: t2,
                    input: i2,
                },
            ) => t1 == t2 && bits(i1) == bits(i2),
            (
                Request::Knn {
                    k: k1,
                    metric: m1,
                    query: q1,
                },
                Request::Knn {
                    k: k2,
                    metric: m2,
                    query: q2,
                },
            ) => k1 == k2 && m1 == m2 && bits(q1) == bits(q2),
            (Request::Stats, Request::Stats) | (Request::Shutdown, Request::Shutdown) => true,
            _ => false,
        }
    }

    proptest! {
        #[test]
        fn request_roundtrip_bit_identical(req in arb_request()) {
            let payload = req.encode();
            let back = Request::decode(&payload).expect("well-formed payload decodes");
            prop_assert!(requests_bit_eq(&req, &back));
            // ... and the re-encoding is byte-identical.
            prop_assert_eq!(back.encode(), payload);
        }

        #[test]
        fn response_roundtrip_bit_identical(case in arb_response()) {
            let (opcode, resp) = case;
            let payload = resp.encode(opcode);
            let (op_back, back) = Response::decode(&payload).expect("well-formed payload decodes");
            prop_assert_eq!(op_back, opcode);
            prop_assert_eq!(back.encode(opcode), payload);
        }

        #[test]
        fn truncated_requests_error_never_panic(req in arb_request(), cut in 0usize..1000) {
            let payload = req.encode();
            if cut < payload.len() {
                let r = Request::decode(&payload[..cut]);
                prop_assert!(r.is_err());
            }
        }

        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            // Decoding garbage must return Ok or a structured error — any
            // panic fails the test harness.
            let _ = Request::decode(&bytes);
            let _ = Response::decode(&bytes);
        }

        #[test]
        fn corrupt_byte_flip_errors_or_decodes(req in arb_request(), idx in 0usize..512, bit in 0u8..8) {
            let mut payload = req.encode();
            if !payload.is_empty() {
                let i = idx % payload.len();
                payload[i] ^= 1 << bit;
                let _ = Request::decode(&payload); // must not panic
            }
        }
    }

    #[test]
    fn frame_roundtrip_and_limits() {
        let req = Request::Embed {
            task: 3,
            input: vec![1.0, -2.5, f32::NAN],
        };
        let payload = req.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let mut buf = Vec::new();
        assert!(read_frame(&mut cursor, &mut buf).unwrap());
        assert_eq!(buf, payload);
        // Clean EOF → Ok(false).
        assert!(!read_frame(&mut cursor, &mut buf).unwrap());

        // Oversized length prefix is rejected before allocation.
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        let mut cursor = std::io::Cursor::new(huge.to_vec());
        assert!(matches!(
            read_frame(&mut cursor, &mut buf),
            Err(ProtocolError::TooLarge(_))
        ));

        // Truncated frame body → structured Truncated error.
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        wire.truncate(wire.len() - 2);
        let mut cursor = std::io::Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut cursor, &mut buf),
            Err(ProtocolError::Truncated { .. })
        ));
    }

    #[test]
    fn version_and_opcode_are_validated() {
        let mut payload = Request::Stats.encode();
        payload[0] = 9;
        assert!(matches!(
            Request::decode(&payload),
            Err(ProtocolError::BadVersion(9))
        ));
        let mut payload = Request::Stats.encode();
        payload[1] = 77;
        assert!(matches!(
            Request::decode(&payload),
            Err(ProtocolError::BadOpcode(77))
        ));
        let mut payload = Response::ShutdownAck.encode(OP_SHUTDOWN);
        payload[1] = 5;
        assert!(matches!(
            Response::decode(&payload),
            Err(ProtocolError::BadStatus(5))
        ));
    }
}
