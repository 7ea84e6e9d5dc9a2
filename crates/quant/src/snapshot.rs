//! `EDSRSS02` — the v2 (quantized) serve-snapshot format.
//!
//! Same on-disk discipline as v1: an 8-byte magic, the payload, and a
//! CRC32 trailer, written `.tmp` → fsync → atomic rename → parent-dir
//! sync through `edsr-wire`. The payload bundles the quantized encoder,
//! the quantized memory grid with task labels, CRC32s of the f32
//! originals it was derived from, and the export-time accuracy
//! [`GateReport`].
//!
//! Payload layout (little-endian):
//!
//! ```text
//! u64 completed_tasks
//! bytes benchmark (u64 len + utf-8)
//! u64 n_input_dims, then n x u64
//! u64 repr_dim
//! u64 n_adapters, then n x quant_linear
//! u64 n_chain, then n x quant_linear
//! quant_tensor memory grid
//! u64 n_memory_tasks, then n x u64
//! u32 f32 params CRC32   (over the v1 snapshot's params payload)
//! u32 f32 memory CRC32   (over the v1 grid's encoded bytes)
//! f32 gate f32 accuracy, f32 gate int8 accuracy
//!
//! quant_linear := quant_tensor wt, u64 n_bias + n x f32, u32 relu (0|1)
//! quant_tensor := u32 rows, u32 cols, u64 n_scales + n x f32,
//!                 i8s data (u64 len + raw bytes)
//! ```

use std::path::Path;

use edsr_nn::io::{read_envelope, write_envelope};
use edsr_nn::CheckpointError;
use edsr_wire::{put_f32, put_f32s, put_u32, put_u64, Reader};

use crate::encoder::{QuantEncoder, QuantLinear};
use crate::knn::{GateReport, QuantMemory};
use crate::tensor::QuantTensor;

/// Magic tag of v2 quantized serve snapshots (v1 is `EDSRSS01`).
pub const QUANT_SNAPSHOT_MAGIC: &[u8; 8] = b"EDSRSS02";

/// A quantized serve snapshot: everything the serve engine needs to run
/// int8 inference, plus provenance (f32 CRCs) and the accuracy gate.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantSnapshot {
    /// Tasks completed when the snapshot was exported.
    pub completed_tasks: usize,
    /// Benchmark name (matches the v1 snapshot it was derived from).
    pub benchmark: String,
    /// The quantized eval-mode encoder.
    pub encoder: QuantEncoder,
    /// The quantized memory grid.
    pub memory: QuantMemory,
    /// Source task ID per memory row.
    pub memory_tasks: Vec<u64>,
    /// CRC32 of the f32 model parameter payload this was quantized from.
    pub f32_params_crc: u32,
    /// CRC32 of the encoded f32 memory grid this was quantized from.
    pub f32_memory_crc: u32,
    /// Export-time leave-one-out accuracy comparison.
    pub gate: GateReport,
}

fn put_quant_tensor(buf: &mut Vec<u8>, t: &QuantTensor) {
    put_u32(buf, t.rows() as u32);
    put_u32(buf, t.cols() as u32);
    put_u64(buf, t.scales().len() as u64);
    put_f32s(buf, t.scales());
    put_u64(buf, t.data().len() as u64);
    buf.extend(t.data().iter().map(|&x| x as u8));
}

fn read_quant_tensor(r: &mut Reader) -> Result<QuantTensor, CheckpointError> {
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    let n_scales = r.u64()?;
    let scales = r.f32s(n_scales)?;
    let n_data = r.u64()?;
    let data = r
        .take(r.count(n_data, 1)?)?
        .iter()
        .map(|&b| b as i8)
        .collect();
    QuantTensor::from_parts(rows, cols, data, scales).map_err(CheckpointError::Mismatch)
}

fn put_quant_linear(buf: &mut Vec<u8>, l: &QuantLinear) {
    put_quant_tensor(buf, &l.wt);
    put_u64(buf, l.bias.len() as u64);
    put_f32s(buf, &l.bias);
    put_u32(buf, l.relu as u32);
}

fn read_quant_linear(r: &mut Reader) -> Result<QuantLinear, CheckpointError> {
    let wt = read_quant_tensor(r)?;
    let n_bias = r.u64()?;
    if n_bias != wt.rows() as u64 {
        return Err(CheckpointError::Mismatch(format!(
            "quant layer bias count {n_bias} != {} output channels",
            wt.rows()
        )));
    }
    let bias = r.f32s(n_bias)?;
    let relu = match r.u32()? {
        0 => false,
        1 => true,
        v => {
            return Err(CheckpointError::Mismatch(format!(
                "quant layer relu tag {v} (want 0|1)"
            )))
        }
    };
    Ok(QuantLinear { wt, bias, relu })
}

/// Reads `n` quant layers, `n` checked against the bytes left (a layer
/// takes at least 36 bytes: two shape words, three counts and the relu tag).
fn read_quant_linears(r: &mut Reader, n: u64) -> Result<Vec<QuantLinear>, CheckpointError> {
    let n = r.count(n, 36)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_quant_linear(r)?);
    }
    Ok(out)
}

impl QuantSnapshot {
    /// Serializes to the EDSRSS02 payload (without the envelope).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u64(&mut buf, self.completed_tasks as u64);
        put_u64(&mut buf, self.benchmark.len() as u64);
        buf.extend_from_slice(self.benchmark.as_bytes());
        put_u64(&mut buf, self.encoder.input_dims().len() as u64);
        for &d in self.encoder.input_dims() {
            put_u64(&mut buf, d as u64);
        }
        put_u64(&mut buf, self.encoder.repr_dim() as u64);
        put_u64(&mut buf, self.encoder.adapters().len() as u64);
        for l in self.encoder.adapters() {
            put_quant_linear(&mut buf, l);
        }
        put_u64(&mut buf, self.encoder.chain().len() as u64);
        for l in self.encoder.chain() {
            put_quant_linear(&mut buf, l);
        }
        put_quant_tensor(&mut buf, self.memory.grid());
        put_u64(&mut buf, self.memory_tasks.len() as u64);
        for &t in &self.memory_tasks {
            put_u64(&mut buf, t);
        }
        put_u32(&mut buf, self.f32_params_crc);
        put_u32(&mut buf, self.f32_memory_crc);
        put_f32(&mut buf, self.gate.f32_accuracy);
        put_f32(&mut buf, self.gate.int8_accuracy);
        buf
    }

    /// Decodes an EDSRSS02 payload, validating every structural invariant.
    pub fn decode(payload: &[u8]) -> Result<QuantSnapshot, CheckpointError> {
        let mut r = Reader::new(payload);
        let completed_tasks = r.u64()? as usize;
        let n_benchmark = r.u64()?;
        let benchmark = String::from_utf8(r.take(r.count(n_benchmark, 1)?)?.to_vec())
            .map_err(|_| CheckpointError::Mismatch("benchmark is not utf-8".into()))?;
        let n_dims = r.u64()?;
        let mut input_dims = Vec::with_capacity(r.count(n_dims, 8)?);
        for _ in 0..n_dims {
            input_dims.push(r.u64()? as usize);
        }
        let repr_dim = r.u64()? as usize;
        let n_adapters = r.u64()?;
        let adapters = read_quant_linears(&mut r, n_adapters)?;
        let n_chain = r.u64()?;
        let chain = read_quant_linears(&mut r, n_chain)?;
        let grid = read_quant_tensor(&mut r)?;
        let n_tasks = r.u64()?;
        let mut memory_tasks = Vec::with_capacity(r.count(n_tasks, 8)?);
        for _ in 0..n_tasks {
            memory_tasks.push(r.u64()?);
        }
        let f32_params_crc = r.u32()?;
        let f32_memory_crc = r.u32()?;
        let gate = GateReport {
            f32_accuracy: r.f32()?,
            int8_accuracy: r.f32()?,
        };
        r.finish()?;
        let encoder = QuantEncoder::new(input_dims, repr_dim, adapters, chain)
            .map_err(CheckpointError::Mismatch)?;
        if grid.cols() != repr_dim && grid.rows() != 0 {
            return Err(CheckpointError::Mismatch(format!(
                "quant memory width {} != repr_dim {repr_dim}",
                grid.cols()
            )));
        }
        if memory_tasks.len() != grid.rows() {
            return Err(CheckpointError::Mismatch(format!(
                "quant memory rows {} != task labels {}",
                grid.rows(),
                memory_tasks.len()
            )));
        }
        Ok(QuantSnapshot {
            completed_tasks,
            benchmark,
            encoder,
            memory: QuantMemory::from_grid(grid),
            memory_tasks,
            f32_params_crc,
            f32_memory_crc,
            gate,
        })
    }

    /// Writes the snapshot as a CRC-trailed envelope (fsync before the
    /// atomic rename, parent directory synced — crash-safe like v1).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        write_envelope(path, QUANT_SNAPSHOT_MAGIC, &self.encode())
    }

    /// Reads and validates an EDSRSS02 envelope.
    pub fn load(path: impl AsRef<Path>) -> Result<QuantSnapshot, CheckpointError> {
        QuantSnapshot::decode(&read_envelope(path, QUANT_SNAPSHOT_MAGIC)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edsr_tensor::Matrix;

    fn sample() -> QuantSnapshot {
        let w = Matrix::from_vec(2, 2, vec![1.0, -0.5, 0.25, 2.0]);
        let adapter = QuantLinear::from_f32(&w, &[0.1, -0.1], true, false);
        let head = QuantLinear::from_f32(&w, &[0.0, 0.0], false, true);
        let encoder = QuantEncoder::new(vec![2], 2, vec![adapter], vec![head]).unwrap();
        let memory = Matrix::from_rows(&[&[1.0, 0.0], &[-1.0, 0.5]]);
        QuantSnapshot {
            completed_tasks: 3,
            benchmark: "test".into(),
            encoder,
            memory: QuantMemory::from_matrix(&memory),
            memory_tasks: vec![0, 1],
            f32_params_crc: 0xdead_beef,
            f32_memory_crc: 0x1234_5678,
            gate: GateReport {
                f32_accuracy: 100.0,
                int8_accuracy: 99.5,
            },
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let snap = sample();
        let got = QuantSnapshot::decode(&snap.encode()).expect("decode");
        assert_eq!(got, snap);
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut payload = sample().encode();
        payload.push(0);
        assert!(matches!(
            QuantSnapshot::decode(&payload),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn save_load_round_trips_and_checks_magic() {
        let dir = std::env::temp_dir().join(format!("edsr-quant-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.snapshot");
        let snap = sample();
        snap.save(&path).unwrap();
        assert_eq!(QuantSnapshot::load(&path).unwrap(), snap);
        // A v1-magic file must be rejected as BadMagic, which is what
        // lets the any-format loader fall through to v1 decoding.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[..8].copy_from_slice(b"EDSRSS01");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            QuantSnapshot::load(&path),
            Err(CheckpointError::BadMagic)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
