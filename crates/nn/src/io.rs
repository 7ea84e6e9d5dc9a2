//! Parameter and run-state persistence: versioned, integrity-checked
//! binary envelopes.
//!
//! Two weight formats exist:
//!
//! **v1** (`EDSRW001`, legacy, still readable):
//! ```text
//! magic  "EDSRW001"          8 bytes
//! count  u32                 number of parameters
//! per parameter:
//!   name_len u32, name bytes (UTF-8)
//!   rows u32, cols u32
//!   rows*cols f32 values
//! ```
//!
//! **v2** (`EDSRW002`, written by [`save_params`]) wraps the same payload
//! in the generic integrity [envelope](write_envelope):
//! ```text
//! magic    8 bytes            format/kind tag
//! payload  N bytes
//! trailer  u64 payload_len, u32 crc32(payload)
//! ```
//!
//! The trailer makes truncated or bit-flipped files detectable *before*
//! any payload parsing: a checkpoint interrupted mid-write fails the
//! length check ([`CheckpointError::Truncated`]) and corruption fails the
//! CRC ([`CheckpointError::Corrupt`]). Writers go through a temp file +
//! rename so a crash never leaves a half-written file under the final
//! name. The envelope is reused by `edsr-cl`'s run-state checkpoints
//! (its own magic), so every persisted artifact in the workspace shares
//! one validation path.
//!
//! Loading validates names and shapes against the receiving set, so a
//! checkpoint can only be restored into a structurally identical model.

use std::fs::File;
use std::io::{self, BufReader, Read, Write};
use std::path::Path;

use edsr_tensor::Matrix;

use crate::optim::OptimState;
use crate::params::ParamSet;

const MAGIC_V1: &[u8; 8] = b"EDSRW001";
const MAGIC_V2: &[u8; 8] = b"EDSRW002";

/// Errors produced by checkpoint IO.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying file error.
    Io(io::Error),
    /// The file is not an EDSR checkpoint (bad magic).
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
    /// Parameter count, name, or shape disagrees with the receiving set.
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::BadMagic => write!(f, "not an EDSR checkpoint (bad magic)"),
            CheckpointError::Truncated { expected, got } => {
                write!(
                    f,
                    "checkpoint truncated: expected {expected} payload bytes, found {got}"
                )
            }
            CheckpointError::Corrupt { stored, computed } => {
                write!(
                    f,
                    "checkpoint corrupt: crc32 {computed:08x} != stored {stored:08x}"
                )
            }
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// CRC32 + envelope: shared with the wire layer (edsr-wire). The helpers
// below keep this module's historical public API — `CheckpointError` out,
// same semantics — while the byte-level mechanics live in one place for
// checkpoints and serve snapshots alike.
// ---------------------------------------------------------------------------

/// CRC32 (IEEE) of `bytes` — the integrity check in the v2 trailer.
/// Re-exported from `edsr-wire`, the shared implementation.
pub use edsr_wire::crc32;

fn envelope_err(e: edsr_wire::EnvelopeError) -> CheckpointError {
    match e {
        edsr_wire::EnvelopeError::Io(e) => CheckpointError::Io(e),
        edsr_wire::EnvelopeError::BadMagic => CheckpointError::BadMagic,
        edsr_wire::EnvelopeError::Truncated { expected, got } => {
            CheckpointError::Truncated { expected, got }
        }
        edsr_wire::EnvelopeError::Corrupt { stored, computed } => {
            CheckpointError::Corrupt { stored, computed }
        }
    }
}

/// Writes `payload` under `magic` to `path` with the v2 integrity trailer.
///
/// Durability contract (implemented by [`edsr_wire::write_envelope`]):
/// the write goes to `<path>.tmp`, is `fsync`ed to stable storage, and
/// only then renamed into place, so neither a process crash nor a power
/// loss can leave a half-written (or fully-written but unflushed) file
/// under the final name. The parent directory is fsynced best-effort so
/// the rename itself is durable too.
pub fn write_envelope(
    path: impl AsRef<Path>,
    magic: &[u8; 8],
    payload: &[u8],
) -> Result<(), CheckpointError> {
    edsr_wire::write_envelope(path, magic, payload).map_err(envelope_err)
}

/// Reads and validates an envelope written by [`write_envelope`].
///
/// Checks, in order: the magic tag, the declared payload length against
/// the bytes actually present ([`CheckpointError::Truncated`] on any
/// shortfall), and the payload CRC32 ([`CheckpointError::Corrupt`]).
/// Only then is the validated payload returned for parsing.
pub fn read_envelope(path: impl AsRef<Path>, magic: &[u8; 8]) -> Result<Vec<u8>, CheckpointError> {
    edsr_wire::read_envelope(path, magic).map_err(envelope_err)
}

/// As [`read_envelope`], over an in-memory image of the file.
pub fn read_envelope_bytes(bytes: &[u8], magic: &[u8; 8]) -> Result<Vec<u8>, CheckpointError> {
    edsr_wire::read_envelope_bytes(bytes, magic).map_err(envelope_err)
}

// ---------------------------------------------------------------------------
// Little-endian byte codec helpers, shared with edsr-cl's run states.
// ---------------------------------------------------------------------------

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

/// Appends a length-prefixed byte slice.
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

/// Appends a length-prefixed `i8` slice (raw two's-complement bytes).
pub fn put_i8s(buf: &mut Vec<u8>, v: &[i8]) {
    put_u64(buf, v.len() as u64);
    buf.extend(v.iter().map(|&x| x as u8));
}

/// Appends a shape-prefixed matrix.
pub fn put_matrix(buf: &mut Vec<u8>, m: &Matrix) {
    put_u32(buf, m.rows() as u32);
    put_u32(buf, m.cols() as u32);
    for &v in m.data() {
        put_f32(buf, v);
    }
}

/// Sequential reader over a validated payload; every accessor checks
/// bounds and reports structured [`CheckpointError::Truncated`] instead of
/// panicking.
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Starts reading at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated {
            expected: u64::MAX,
            got: self.bytes.len() as u64,
        })?;
        if end > self.bytes.len() {
            return Err(CheckpointError::Truncated {
                expected: end as u64,
                got: self.bytes.len() as u64,
            });
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f32`.
    pub fn f32(&mut self) -> Result<f32, CheckpointError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads an `f64`.
    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], CheckpointError> {
        let len = self.u64()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed `i8` slice written by [`put_i8s`].
    pub fn i8s(&mut self) -> Result<Vec<i8>, CheckpointError> {
        Ok(self.bytes()?.iter().map(|&b| b as i8).collect())
    }

    /// Reads a shape-prefixed matrix.
    pub fn matrix(&mut self) -> Result<Matrix, CheckpointError> {
        let rows = self.u32()? as usize;
        let cols = self.u32()? as usize;
        let n = rows.checked_mul(cols).ok_or_else(|| {
            CheckpointError::Mismatch(format!("matrix shape overflow: {rows}x{cols}"))
        })?;
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(self.f32()?);
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }
}

// ---------------------------------------------------------------------------
// ParamSet payload codec (shared by v1 and v2 weight files).
// ---------------------------------------------------------------------------

/// Serializes every parameter of `params` into the weight payload layout.
pub fn params_to_bytes(params: &ParamSet) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + params.num_scalars() * 4);
    put_u32(&mut buf, params.len() as u32);
    for id in params.ids() {
        let name = params.name(id).as_bytes();
        put_u32(&mut buf, name.len() as u32);
        buf.extend_from_slice(name);
        put_matrix(&mut buf, params.value(id));
    }
    buf
}

/// Restores a weight payload into `params`, validating names and shapes.
pub fn params_from_bytes(params: &mut ParamSet, payload: &[u8]) -> Result<(), CheckpointError> {
    let mut r = ByteReader::new(payload);
    let count = r.u32()? as usize;
    if count != params.len() {
        return Err(CheckpointError::Mismatch(format!(
            "file has {count} parameters, model has {}",
            params.len()
        )));
    }
    for id in params.ids().collect::<Vec<_>>() {
        let name_len = r.u32()? as usize;
        let name = String::from_utf8_lossy(r.take(name_len)?).into_owned();
        if name != params.name(id) {
            return Err(CheckpointError::Mismatch(format!(
                "parameter name {name:?} does not match model's {:?}",
                params.name(id)
            )));
        }
        let value = r.matrix()?;
        let expected = params.value(id).shape();
        if value.shape() != expected {
            return Err(CheckpointError::Mismatch(format!(
                "parameter {name:?} has shape {}x{}, model expects {}x{}",
                value.rows(),
                value.cols(),
                expected.0,
                expected.1
            )));
        }
        *params.value_mut(id) = value;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Optimizer-state codec (run-state checkpoints persist optimizer moments).
// ---------------------------------------------------------------------------

/// Serializes an exported optimizer state.
pub fn optim_state_to_bytes(state: &OptimState) -> Vec<u8> {
    let mut buf = Vec::new();
    match state {
        OptimState::Sgd { lr, velocity } => {
            put_u32(&mut buf, 1);
            put_f32(&mut buf, *lr);
            put_u32(&mut buf, velocity.len() as u32);
            for m in velocity {
                put_matrix(&mut buf, m);
            }
        }
        OptimState::Adam { lr, t, m, v } => {
            put_u32(&mut buf, 2);
            put_f32(&mut buf, *lr);
            put_u64(&mut buf, *t);
            put_u32(&mut buf, m.len() as u32);
            for mm in m {
                put_matrix(&mut buf, mm);
            }
            for vv in v {
                put_matrix(&mut buf, vv);
            }
        }
    }
    buf
}

/// Deserializes an optimizer state written by [`optim_state_to_bytes`].
pub fn optim_state_from_bytes(payload: &[u8]) -> Result<OptimState, CheckpointError> {
    let mut r = ByteReader::new(payload);
    match r.u32()? {
        1 => {
            let lr = r.f32()?;
            let n = r.u32()? as usize;
            let velocity = (0..n).map(|_| r.matrix()).collect::<Result<Vec<_>, _>>()?;
            Ok(OptimState::Sgd { lr, velocity })
        }
        2 => {
            let lr = r.f32()?;
            let t = r.u64()?;
            let n = r.u32()? as usize;
            let m = (0..n).map(|_| r.matrix()).collect::<Result<Vec<_>, _>>()?;
            let v = (0..n).map(|_| r.matrix()).collect::<Result<Vec<_>, _>>()?;
            Ok(OptimState::Adam { lr, t, m, v })
        }
        k => Err(CheckpointError::Mismatch(format!(
            "unknown optimizer-state kind {k}"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Public weight-file API.
// ---------------------------------------------------------------------------

/// Writes all parameter values of `params` to `path` (v2 format:
/// `EDSRW002` envelope with a length/CRC32 trailer, atomic rename).
pub fn save_params(params: &ParamSet, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    write_envelope(path, MAGIC_V2, &params_to_bytes(params))
}

fn read_u32_stream(r: &mut impl Read) -> Result<u32, CheckpointError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Loads a checkpoint written by [`save_params`] into `params`.
///
/// Accepts both the current `EDSRW002` envelope (length/CRC validated
/// before parsing) and the legacy `EDSRW001` stream format. Every
/// parameter's name and shape must match the receiving set (same
/// architecture, same registration order).
pub fn load_params(params: &mut ParamSet, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    let path = path.as_ref();
    let mut r = BufReader::new(File::open(path)?);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic == MAGIC_V2 {
        drop(r);
        let payload = read_envelope(path, MAGIC_V2)?;
        return params_from_bytes(params, &payload);
    }
    if &magic != MAGIC_V1 {
        return Err(CheckpointError::BadMagic);
    }
    load_params_v1(params, &mut r)
}

/// Legacy `EDSRW001` streaming loader (no integrity trailer).
fn load_params_v1(params: &mut ParamSet, r: &mut impl Read) -> Result<(), CheckpointError> {
    let count = read_u32_stream(r)? as usize;
    if count != params.len() {
        return Err(CheckpointError::Mismatch(format!(
            "file has {count} parameters, model has {}",
            params.len()
        )));
    }
    for id in params.ids().collect::<Vec<_>>() {
        let name_len = read_u32_stream(r)? as usize;
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let name = String::from_utf8_lossy(&name).into_owned();
        if name != params.name(id) {
            return Err(CheckpointError::Mismatch(format!(
                "parameter name {name:?} does not match model's {:?}",
                params.name(id)
            )));
        }
        let rows = read_u32_stream(r)? as usize;
        let cols = read_u32_stream(r)? as usize;
        let expected = params.value(id).shape();
        if (rows, cols) != expected {
            return Err(CheckpointError::Mismatch(format!(
                "parameter {name:?} has shape {rows}x{cols}, model expects {}x{}",
                expected.0, expected.1
            )));
        }
        let mut data = vec![0.0f32; rows * cols];
        for v in &mut data {
            let mut buf = [0u8; 4];
            r.read_exact(&mut buf)?;
            *v = f32::from_le_bytes(buf);
        }
        *params.value_mut(id) = Matrix::from_vec(rows, cols, data);
    }
    Ok(())
}

/// Writes a legacy v1 (`EDSRW001`) weight file. Kept for compatibility
/// tests and for producing artifacts older tooling can read; new code
/// should use [`save_params`].
pub fn save_params_v1(params: &ParamSet, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    let tmp = path.as_ref().with_extension("tmp");
    {
        let mut w = io::BufWriter::new(File::create(&tmp)?);
        w.write_all(MAGIC_V1)?;
        w.write_all(&params_to_bytes(params))?;
        w.flush()?;
        // Same durability contract as `write_envelope`: data reaches
        // stable storage before the rename publishes the final name.
        w.get_ref().sync_all()?;
    }
    std::fs::rename(&tmp, path.as_ref())?;
    edsr_wire::sync_parent_dir(path.as_ref());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, Init, Mlp};
    use edsr_tensor::rng::seeded;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("edsr-ckpt-{name}-{}", std::process::id()));
        p
    }

    fn fresh_model(seed: u64) -> (Mlp, ParamSet) {
        let mut rng = seeded(seed);
        let mut ps = ParamSet::new();
        let mlp = Mlp::new(
            &mut ps,
            "m",
            &[4, 8, 3],
            Activation::Relu,
            Init::He,
            &mut rng,
        );
        (mlp, ps)
    }

    #[test]
    fn roundtrip_preserves_weights_exactly() {
        let (_mlp, ps) = fresh_model(500);
        let path = tmp("roundtrip");
        save_params(&ps, &path).expect("save");
        let (_mlp2, mut ps2) = fresh_model(501); // different init
        let before = ps2.value(ps2.ids().next().unwrap()).clone();
        load_params(&mut ps2, &path).expect("load");
        for (a, b) in ps.ids().zip(ps2.ids()) {
            assert_eq!(ps.value(a), ps2.value(b), "weights differ after roundtrip");
        }
        assert_ne!(&before, ps2.value(ps2.ids().next().unwrap()));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn legacy_v1_files_still_load() {
        let (_mlp, ps) = fresh_model(520);
        let path = tmp("v1-compat");
        save_params_v1(&ps, &path).expect("save v1");
        let (_mlp2, mut ps2) = fresh_model(521);
        load_params(&mut ps2, &path).expect("load v1");
        for (a, b) in ps.ids().zip(ps2.ids()) {
            assert_eq!(
                ps.value(a),
                ps2.value(b),
                "v1 weights differ after roundtrip"
            );
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn truncated_v2_file_is_rejected() {
        let (_mlp, ps) = fresh_model(522);
        let path = tmp("truncated");
        save_params(&ps, &path).expect("save");
        let full = std::fs::read(&path).expect("read back");
        // Cut the file at several points; every cut must be detected.
        for keep in [9, full.len() / 2, full.len() - 5, full.len() - 1] {
            std::fs::write(&path, &full[..keep]).expect("write truncated");
            let (_m, mut ps2) = fresh_model(523);
            let err = load_params(&mut ps2, &path).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. } | CheckpointError::Corrupt { .. }
                ),
                "cut at {keep}: unexpected {err}"
            );
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bitflip_fails_crc() {
        let (_mlp, ps) = fresh_model(524);
        let path = tmp("bitflip");
        save_params(&ps, &path).expect("save");
        let mut bytes = std::fs::read(&path).expect("read back");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write corrupted");
        let (_m, mut ps2) = fresh_model(525);
        let err = load_params(&mut ps2, &path).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rejects_wrong_architecture() {
        let (_mlp, ps) = fresh_model(502);
        let path = tmp("arch");
        save_params(&ps, &path).expect("save");
        let mut rng = seeded(503);
        let mut other = ParamSet::new();
        let _ = Mlp::new(
            &mut other,
            "m",
            &[4, 16, 3],
            Activation::Relu,
            Init::He,
            &mut rng,
        );
        let err = load_params(&mut other, &path).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rejects_wrong_parameter_count() {
        let (_mlp, ps) = fresh_model(504);
        let path = tmp("count");
        save_params(&ps, &path).expect("save");
        let mut rng = seeded(505);
        let mut other = ParamSet::new();
        let _ = Mlp::new(
            &mut other,
            "m",
            &[4, 8, 8, 3],
            Activation::Relu,
            Init::He,
            &mut rng,
        );
        assert!(load_params(&mut other, &path).is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rejects_garbage_file() {
        let path = tmp("garbage");
        std::fs::write(&path, b"definitely not a checkpoint").unwrap();
        let (_mlp, mut ps) = fresh_model(506);
        let err = load_params(&mut ps, &path).unwrap_err();
        assert!(matches!(err, CheckpointError::BadMagic), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn missing_file_is_io_error() {
        let (_mlp, mut ps) = fresh_model(507);
        let err = load_params(&mut ps, "/nonexistent/edsr.ckpt").unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn envelope_roundtrip_and_validation() {
        let path = tmp("envelope");
        let payload = vec![7u8; 129];
        write_envelope(&path, b"EDSRTEST", &payload).expect("write");
        assert_eq!(read_envelope(&path, b"EDSRTEST").expect("read"), payload);
        // Wrong magic.
        assert!(matches!(
            read_envelope(&path, b"EDSRXXXX").unwrap_err(),
            CheckpointError::BadMagic
        ));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn byte_reader_reports_truncation() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 5);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u32().expect("fits"), 5);
        assert!(matches!(
            r.u64().unwrap_err(),
            CheckpointError::Truncated { .. }
        ));
    }

    #[test]
    fn optimizer_state_roundtrip() {
        let mut rng = seeded(530);
        let m1 = Matrix::randn(2, 3, 1.0, &mut rng);
        let m2 = Matrix::randn(3, 1, 1.0, &mut rng);
        let state = OptimState::Adam {
            lr: 0.25,
            t: 17,
            m: vec![m1.clone(), m2.clone()],
            v: vec![m2.clone(), m1.clone()],
        };
        let bytes = optim_state_to_bytes(&state);
        match optim_state_from_bytes(&bytes).expect("decode") {
            OptimState::Adam { lr, t, m, v } => {
                assert_eq!(lr, 0.25);
                assert_eq!(t, 17);
                assert_eq!(m, vec![m1.clone(), m2.clone()]);
                assert_eq!(v, vec![m2, m1]);
            }
            other => panic!("wrong kind decoded: {other:?}"),
        }
        let sgd = OptimState::Sgd {
            lr: 0.5,
            velocity: vec![Matrix::zeros(1, 4)],
        };
        let decoded = optim_state_from_bytes(&optim_state_to_bytes(&sgd)).expect("decode sgd");
        assert!(matches!(decoded, OptimState::Sgd { lr, ref velocity }
            if lr == 0.5 && velocity.len() == 1));
    }
}
