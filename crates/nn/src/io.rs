//! Parameter and optimizer-state persistence.
//!
//! One weight format, `EDSRW002`, written by [`save_params`]: the payload
//! of [`params_to_bytes`] inside the generic integrity
//! [envelope](write_envelope):
//! ```text
//! magic    "EDSRW002"         8 bytes
//! payload  u32 count, then per parameter:
//!            u32 name_len, name bytes (UTF-8), u32 rows, u32 cols,
//!            rows*cols f32 values
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
//! Payloads are parsed with `edsr-wire`'s [`Reader`]; the matrices inside
//! them are written and read by [`put_matrix`] and [`read_matrix`].
//! Loading validates names and shapes against the receiving set, so a
//! checkpoint can only be restored into a structurally identical model.

use std::io;
use std::path::Path;

use edsr_tensor::Matrix;
use edsr_wire::{put_f32, put_f32s, put_u32, put_u64, DecodeError, Reader};

use crate::optim::OptimState;
use crate::params::ParamSet;

const MAGIC: &[u8; 8] = b"EDSRW002";

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

impl From<DecodeError> for CheckpointError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated { expected, got } => CheckpointError::Truncated {
                expected: expected as u64,
                got: got as u64,
            },
            DecodeError::Trailing(_) => CheckpointError::Mismatch(e.to_string()),
        }
    }
}

// ---------------------------------------------------------------------------
// Envelope: shared with the wire layer (edsr-wire), surfaced with this
// module's `CheckpointError` so checkpoints and serve snapshots keep one
// error type.
// ---------------------------------------------------------------------------

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

/// Writes `payload` under `magic` to `path` with the integrity trailer.
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
// Matrix codec.
// ---------------------------------------------------------------------------

/// Appends a shape-prefixed matrix: `u32 rows, u32 cols`, then the values
/// row-major.
pub fn put_matrix(buf: &mut Vec<u8>, m: &Matrix) {
    put_u32(buf, m.rows() as u32);
    put_u32(buf, m.cols() as u32);
    put_f32s(buf, m.data());
}

/// Reads a matrix written by [`put_matrix`].
pub fn read_matrix(r: &mut Reader<'_>) -> Result<Matrix, DecodeError> {
    let rows = r.u32()?;
    let cols = r.u32()?;
    let data = r.f32s(u64::from(rows) * u64::from(cols))?;
    Ok(Matrix::from_vec(rows as usize, cols as usize, data))
}

// ---------------------------------------------------------------------------
// ParamSet payload codec.
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
    let mut r = Reader::new(payload);
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
        let value = read_matrix(&mut r)?;
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
    r.finish()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Optimizer-state codec (run-state checkpoints persist optimizer moments).
// ---------------------------------------------------------------------------

/// The kind tag every optimizer-state payload starts with: Adam's. Any
/// other tag (1 was SGD momentum) fails to decode.
const ADAM_KIND: u32 = 2;

/// Serializes an exported optimizer state: the kind tag, `lr`, `t`, the
/// moment count, then every first moment and every second moment.
pub fn optim_state_to_bytes(state: &OptimState) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, ADAM_KIND);
    put_f32(&mut buf, state.lr);
    put_u64(&mut buf, state.t);
    put_u32(&mut buf, state.m.len() as u32);
    for m in state.m.iter().chain(&state.v) {
        put_matrix(&mut buf, m);
    }
    buf
}

/// Reads `n` matrices written by [`put_matrix`], `n` checked against the
/// bytes left (a matrix takes at least its 8-byte shape).
pub fn read_matrices(r: &mut Reader<'_>, n: u64) -> Result<Vec<Matrix>, DecodeError> {
    let n = r.count(n, 8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_matrix(r)?);
    }
    Ok(out)
}

/// Deserializes an optimizer state written by [`optim_state_to_bytes`].
/// Any kind tag but Adam's is a [`CheckpointError::Mismatch`].
pub fn optim_state_from_bytes(payload: &[u8]) -> Result<OptimState, CheckpointError> {
    let mut r = Reader::new(payload);
    let kind = r.u32()?;
    if kind != ADAM_KIND {
        return Err(CheckpointError::Mismatch(format!(
            "optimizer-state kind {kind} is not Adam's ({ADAM_KIND})"
        )));
    }
    let lr = r.f32()?;
    let t = r.u64()?;
    let n = r.u32()?;
    let m = read_matrices(&mut r, n.into())?;
    let v = read_matrices(&mut r, n.into())?;
    r.finish()?;
    Ok(OptimState { lr, t, m, v })
}

// ---------------------------------------------------------------------------
// Public weight-file API.
// ---------------------------------------------------------------------------

/// Writes all parameter values of `params` to `path` (`EDSRW002`
/// envelope with a length/CRC32 trailer, atomic rename).
pub fn save_params(params: &ParamSet, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    write_envelope(path, MAGIC, &params_to_bytes(params))
}

/// Loads a checkpoint written by [`save_params`] into `params`: the
/// envelope's length and CRC are validated before parsing, and every
/// parameter's name and shape must match the receiving set (same
/// architecture, same registration order).
pub fn load_params(params: &mut ParamSet, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    params_from_bytes(params, &read_envelope(path, MAGIC)?)
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
    fn matrix_codec_round_trips_and_checks_shape_against_length() {
        let m = Matrix::randn(3, 2, 1.0, &mut seeded(531));
        let mut buf = Vec::new();
        put_matrix(&mut buf, &m);
        assert_eq!(read_matrix(&mut Reader::new(&buf)).expect("decode"), m);
        // A huge shape over an 8-byte payload is a truncation, not an
        // allocation.
        for side in [1 << 14, u32::MAX] {
            let mut huge = Vec::new();
            put_u32(&mut huge, side);
            put_u32(&mut huge, side);
            assert!(matches!(
                read_matrix(&mut Reader::new(&huge)),
                Err(DecodeError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn optimizer_state_roundtrip() {
        let mut rng = seeded(530);
        let m1 = Matrix::randn(2, 3, 1.0, &mut rng);
        let m2 = Matrix::randn(3, 1, 1.0, &mut rng);
        let state = OptimState {
            lr: 0.25,
            t: 17,
            m: vec![m1.clone(), m2.clone()],
            v: vec![m2.clone(), m1.clone()],
        };
        let bytes = optim_state_to_bytes(&state);
        let OptimState { lr, t, m, v } = optim_state_from_bytes(&bytes).expect("decode");
        assert_eq!(lr, 0.25);
        assert_eq!(t, 17);
        assert_eq!(m, vec![m1.clone(), m2.clone()]);
        assert_eq!(v, vec![m2, m1]);
    }

    #[test]
    fn sgd_optimizer_state_is_a_mismatch() {
        // The kind-1 layout SGD's momentum state was written in: tag, lr,
        // velocity count, velocities.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 1);
        put_f32(&mut bytes, 0.5);
        put_u32(&mut bytes, 1);
        put_matrix(&mut bytes, &Matrix::zeros(1, 4));
        let err = optim_state_from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
    }
}
