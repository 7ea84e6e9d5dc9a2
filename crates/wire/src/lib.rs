//! # edsr-wire
//!
//! The shared wire substrate: every byte-level mechanism the workspace's
//! binary formats use, in one place, so serving, checkpoints, data shards
//! and quantized snapshots frame, validate and parse bytes identically.
//!
//! Four building blocks:
//!
//! - **Framing** ([`write_frame`] / [`read_frame`]): one message = a
//!   `u32` little-endian payload length followed by the payload, with a
//!   hard [`MAX_FRAME`] cap checked *before* allocation so a corrupt
//!   length prefix cannot OOM a peer.
//! - **CRC32** ([`crc32`]): IEEE 802.3 reflected, table-driven — the
//!   integrity check shared by file envelopes and wire payloads.
//! - **Envelopes** ([`write_envelope`] / [`read_envelope`]): the
//!   `magic + payload + (u64 length, u32 crc32)` on-disk format with
//!   temp-file + fsync + atomic-rename durability, used by parameter
//!   checkpoints, run states, serve snapshots and data shards.
//! - **Payload codec** ([`Reader`] and the `put_*` writers): little-endian
//!   integers and floats, the one payload reader every binary decoder in
//!   the workspace uses.
//!
//! The allocation rule: a decoder allocates from a count it read out of
//! the payload only after [`Reader::count`] has checked, with a checked
//! multiply, that that many elements of at least `min_bytes` each fit in
//! the bytes left ([`Reader::f32s`] applies the rule itself). A corrupt or
//! crafted count therefore fails as [`DecodeError::Truncated`] instead of
//! reserving memory the payload cannot back: no decode allocates more than
//! a small multiple of its input.
//!
//! Consumers keep their own error types (`ProtocolError`,
//! `CheckpointError`, `DataError`) and map [`FrameError`],
//! [`EnvelopeError`] and [`DecodeError`] into them, so public APIs and
//! tests above this crate see their usual variants.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

/// Hard cap on a frame payload (16 MiB): anything larger is rejected
/// before allocation, so a corrupt length prefix cannot OOM the peer.
pub const MAX_FRAME: usize = 1 << 24;

/// Failure while reading or writing a length-prefixed frame.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket/file error.
    Io(io::Error),
    /// The stream ended before the bytes it promised.
    Truncated {
        /// Bytes the reader needed.
        expected: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// Frame length prefix (or payload) exceeds [`MAX_FRAME`].
    TooLarge(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
            FrameError::Truncated { expected, got } => {
                write!(f, "truncated frame: needed {expected} bytes, {got} present")
            }
            FrameError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte cap")
            }
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one `u32`-length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME {
        return Err(FrameError::TooLarge(payload.len()));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame's payload into `buf` (cleared and resized; reusing one
/// buffer keeps steady-state reads allocation-free). Returns `Ok(false)`
/// on clean EOF before any length byte; propagates everything else.
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<bool, FrameError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(FrameError::Truncated {
                    expected: 4,
                    got: filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    buf.clear();
    buf.resize(len, 0);
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated {
                expected: len,
                got: 0,
            }
        } else {
            FrameError::Io(e)
        }
    })?;
    Ok(true)
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected), table-driven.
// ---------------------------------------------------------------------------

fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC32 (IEEE) of `bytes` — the integrity check in envelope trailers and
/// on the quantized snapshot's f32-source digests.
pub fn crc32(bytes: &[u8]) -> u32 {
    // Table construction is allocation-free and cheap to call; the
    // compiler hoists it, and integrity checks are far from any hot loop.
    let table = crc32_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Envelope: magic + payload + (length, crc32) trailer, atomic write.
// ---------------------------------------------------------------------------

const TRAILER_LEN: u64 = 12; // u64 length + u32 crc

/// Failure while writing or validating an integrity envelope.
#[derive(Debug)]
pub enum EnvelopeError {
    /// Underlying file error.
    Io(io::Error),
    /// The bytes do not open with the expected magic tag.
    BadMagic,
    /// The file ends before its declared payload (interrupted write).
    Truncated {
        /// Bytes the trailer (or parser) expected.
        expected: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// The payload's CRC32 does not match its trailer (bit corruption).
    Corrupt {
        /// CRC stored in the trailer.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
}

impl std::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvelopeError::Io(e) => write!(f, "envelope io error: {e}"),
            EnvelopeError::BadMagic => write!(f, "not an EDSR envelope (bad magic)"),
            EnvelopeError::Truncated { expected, got } => {
                write!(
                    f,
                    "envelope truncated: expected {expected} payload bytes, found {got}"
                )
            }
            EnvelopeError::Corrupt { stored, computed } => {
                write!(
                    f,
                    "envelope corrupt: crc32 {computed:08x} != stored {stored:08x}"
                )
            }
        }
    }
}

impl std::error::Error for EnvelopeError {}

impl From<io::Error> for EnvelopeError {
    fn from(e: io::Error) -> Self {
        EnvelopeError::Io(e)
    }
}

/// Writes `payload` under `magic` to `path` with the integrity trailer.
///
/// Durability contract: the write goes to `<path>.tmp`, is `fsync`ed to
/// stable storage, and only then renamed into place, so neither a process
/// crash nor a power loss can leave a half-written (or fully-written but
/// unflushed) file under the final name. Without the fsync, rename-only
/// atomicity still allows the *metadata* rename to reach disk before the
/// *data* blocks — after power loss the final path could hold garbage
/// that passes the existence check and fails CRC. The parent directory
/// is fsynced best-effort so the rename itself is durable too.
pub fn write_envelope(
    path: impl AsRef<Path>,
    magic: &[u8; 8],
    payload: &[u8],
) -> Result<(), EnvelopeError> {
    let path = path.as_ref();
    let tmp = path.with_extension("tmp");
    {
        let mut w = io::BufWriter::new(File::create(&tmp)?);
        w.write_all(magic)?;
        w.write_all(payload)?;
        w.write_all(&(payload.len() as u64).to_le_bytes())?;
        w.write_all(&crc32(payload).to_le_bytes())?;
        w.flush()?;
        w.get_ref().sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(())
}

/// Best-effort fsync of `path`'s parent directory, making a just-completed
/// rename durable. Failures are ignored: some filesystems (and most CI
/// sandboxes) reject directory fsync, and the worst case is the pre-fsync
/// status quo — the rename may be lost on power failure, never torn.
pub fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        let dir = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        if let Ok(handle) = File::open(dir) {
            let _ = handle.sync_all();
        }
    }
}

/// Reads and validates an envelope written by [`write_envelope`].
///
/// Checks, in order: the magic tag, the declared payload length against
/// the bytes actually present ([`EnvelopeError::Truncated`] on any
/// shortfall), and the payload CRC32 ([`EnvelopeError::Corrupt`]).
/// Only then is the validated payload returned for parsing.
pub fn read_envelope(path: impl AsRef<Path>, magic: &[u8; 8]) -> Result<Vec<u8>, EnvelopeError> {
    let bytes = std::fs::read(path)?;
    read_envelope_bytes(&bytes, magic)
}

/// As [`read_envelope`], over an in-memory image of the file.
pub fn read_envelope_bytes(bytes: &[u8], magic: &[u8; 8]) -> Result<Vec<u8>, EnvelopeError> {
    if bytes.len() < 8 || &bytes[..8] != magic {
        return Err(EnvelopeError::BadMagic);
    }
    let body = &bytes[8..];
    if (body.len() as u64) < TRAILER_LEN {
        return Err(EnvelopeError::Truncated {
            expected: TRAILER_LEN,
            got: body.len() as u64,
        });
    }
    let (payload_and_len, crc_bytes) = body.split_at(body.len() - 4);
    let (payload, len_bytes) = payload_and_len.split_at(payload_and_len.len() - 8);
    let mut len_arr = [0u8; 8];
    len_arr.copy_from_slice(len_bytes);
    let declared = u64::from_le_bytes(len_arr);
    if declared != payload.len() as u64 {
        return Err(EnvelopeError::Truncated {
            expected: declared,
            got: payload.len() as u64,
        });
    }
    let mut crc_arr = [0u8; 4];
    crc_arr.copy_from_slice(crc_bytes);
    let stored = u32::from_le_bytes(crc_arr);
    let computed = crc32(payload);
    if stored != computed {
        return Err(EnvelopeError::Corrupt { stored, computed });
    }
    Ok(payload.to_vec())
}

// ---------------------------------------------------------------------------
// Payload codec: little-endian writers and the bounds-checked reader.
// ---------------------------------------------------------------------------

/// Appends a `u16` (little-endian).
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` (little-endian).
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` (little-endian).
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f32` (little-endian bits).
pub fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` (little-endian bits).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `vs` as little-endian `f32` bits, with no length prefix (each
/// format writes its own count, at its own width).
pub fn put_f32s(buf: &mut Vec<u8>, vs: &[f32]) {
    buf.reserve(vs.len() * 4);
    for &v in vs {
        put_f32(buf, v);
    }
}

/// A payload that does not parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// A field, or a counted run of elements, needs more bytes than are
    /// left. `expected` saturates at `usize::MAX` when the size overflows.
    Truncated {
        /// Bytes the field needs.
        expected: usize,
        /// Bytes left in the payload.
        got: usize,
    },
    /// Bytes remain after the last field.
    Trailing(usize),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { expected, got } => {
                write!(f, "field needs {expected} bytes, {got} left")
            }
            DecodeError::Trailing(n) => write!(f, "{n} trailing bytes after the payload"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Sequential little-endian reader over a payload. Every accessor checks
/// bounds and returns a [`DecodeError`] instead of panicking.
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Starts reading at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { rest: bytes }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.rest.len() {
            return Err(DecodeError::Truncated {
                expected: n,
                got: self.rest.len(),
            });
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads an `f32`.
    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_le_bytes(self.array()?))
    }

    /// Reads an `f64`.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// Checks a count `n` read from the payload before anything is
    /// allocated from it: `n` elements of at least `min_bytes` each must
    /// fit in the bytes left (checked multiply; a `min_bytes` of 0 counts
    /// as 1, so no count goes unchecked). Returns `n` as a `usize`.
    pub fn count(&self, n: u64, min_bytes: usize) -> Result<usize, DecodeError> {
        let got = self.rest.len();
        let need = usize::try_from(n)
            .ok()
            .and_then(|n| Some((n, n.checked_mul(min_bytes.max(1))?)));
        match need {
            Some((n, bytes)) if bytes <= got => Ok(n),
            _ => Err(DecodeError::Truncated {
                expected: need.map_or(usize::MAX, |(_, bytes)| bytes),
                got,
            }),
        }
    }

    /// Reads `n` `f32` values (no length prefix), checking `n` with
    /// [`count`](Self::count) first.
    pub fn f32s(&mut self, n: u64) -> Result<Vec<f32>, DecodeError> {
        let n = self.count(n, 4)?;
        Ok(self
            .take(n * 4)?
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    /// Succeeds only when every byte has been read.
    pub fn finish(&self) -> Result<(), DecodeError> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(DecodeError::Trailing(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_and_clean_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut cur = io::Cursor::new(wire);
        let mut buf = Vec::new();
        assert!(read_frame(&mut cur, &mut buf).unwrap());
        assert_eq!(buf, b"hello");
        assert!(read_frame(&mut cur, &mut buf).unwrap());
        assert_eq!(buf, b"");
        assert!(!read_frame(&mut cur, &mut buf).unwrap(), "clean EOF");
    }

    #[test]
    fn frame_rejects_oversize_and_truncation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let mut cur = io::Cursor::new(wire);
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut cur, &mut buf),
            Err(FrameError::TooLarge(_))
        ));

        let mut wire = Vec::new();
        write_frame(&mut wire, b"abcdef").unwrap();
        for cut in 1..wire.len() {
            let mut cur = io::Cursor::new(&wire[..cut]);
            assert!(
                matches!(
                    read_frame(&mut cur, &mut buf),
                    Err(FrameError::Truncated { .. }) | Err(FrameError::Io(_))
                ),
                "cut at {cut} must surface a structured error"
            );
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn reader_round_trips_every_width() {
        let mut buf = vec![7u8];
        put_u16(&mut buf, 0xBEEF);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_f32(&mut buf, -1.5);
        put_f64(&mut buf, 0.25);
        put_f32s(&mut buf, &[1.0, f32::NAN, -0.0]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f32().unwrap(), -1.5);
        assert_eq!(r.f64().unwrap(), 0.25);
        let bits: Vec<u32> = r.f32s(3).unwrap().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, [1.0f32, f32::NAN, -0.0].map(f32::to_bits));
        r.finish().unwrap();
    }

    #[test]
    fn reader_reports_truncation_and_trailing_bytes() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(
            r.u32(),
            Err(DecodeError::Truncated {
                expected: 4,
                got: 3
            })
        );
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.finish(), Err(DecodeError::Trailing(2)));
    }

    #[test]
    fn counts_are_checked_against_the_bytes_left() {
        let r = Reader::new(&[0; 16]);
        assert_eq!(r.count(4, 4), Ok(4));
        assert_eq!(
            r.count(5, 4),
            Err(DecodeError::Truncated {
                expected: 20,
                got: 16
            })
        );
        for n in [1 << 62, u64::MAX] {
            assert_eq!(
                r.count(n, 8),
                Err(DecodeError::Truncated {
                    expected: usize::MAX,
                    got: 16
                }),
                "{n} x 8 overflows"
            );
        }
        let mut r = Reader::new(&[0; 8]);
        assert!(r.f32s(u64::from(u32::MAX)).is_err());
        assert_eq!(r.f32s(2).unwrap(), vec![0.0, 0.0]);
    }

    #[test]
    fn envelope_roundtrip_detects_truncation_and_corruption() {
        let dir = std::env::temp_dir().join(format!("edsr_wire_env_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.bin");
        let magic = b"EDSRTEST";
        let payload = vec![7u8; 100];
        write_envelope(&path, magic, &payload).unwrap();
        assert_eq!(read_envelope(&path, magic).unwrap(), payload);
        assert!(matches!(
            read_envelope(&path, b"WRONGMAG"),
            Err(EnvelopeError::BadMagic)
        ));

        let full = std::fs::read(&path).unwrap();
        assert!(matches!(
            read_envelope_bytes(&full[..full.len() - 6], magic),
            Err(EnvelopeError::Truncated { .. })
        ));
        let mut flipped = full.clone();
        flipped[10] ^= 0x40;
        assert!(matches!(
            read_envelope_bytes(&flipped, magic),
            Err(EnvelopeError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
