//! # edsr-wire
//!
//! The shared wire substrate: every byte-level integrity mechanism the
//! workspace uses, in one place. Extracted from `edsr-serve`'s protocol
//! module and `edsr-nn`'s checkpoint IO so serving, checkpoints, data
//! shards and quantized snapshots frame and validate bytes identically.
//!
//! Three building blocks:
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
//!   checkpoints, run states, and serve snapshots.
//!
//! Consumers keep their own error types (`ProtocolError`,
//! `CheckpointError`) and map [`FrameError`] / [`EnvelopeError`] into
//! them variant-for-variant, so public APIs and tests above this crate
//! are unchanged by the extraction.

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
