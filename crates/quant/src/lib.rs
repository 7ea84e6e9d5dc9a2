//! Int8 quantized inference for the serve path (DESIGN.md §17).
//!
//! The serve-time operations — eval-mode encoder forward and kNN over the
//! replay-memory representations — are pure inference and do not need f32
//! weights. This crate converts a trained encoder into per-layer symmetric
//! int8 weights (per-output-channel scales for the final projector layer),
//! quantizes the memory grid with one per-tensor scale calibrated over the
//! snapshot's own representations, and runs both through the exact-`i32`
//! int8 reduction kernels in `edsr_tensor::simd`.
//!
//! ## Scheme
//!
//! - **Weights**: static symmetric, zero-point 0. One f32 scale per layer
//!   (`max_abs / 127`); the final layer gets one scale per output channel.
//!   Weights are stored transposed (one row per output channel) so each
//!   output is a single contiguous [`edsr_tensor::simd::i8_dot`].
//! - **Activations**: dynamic symmetric per *row* — each request row is
//!   quantized with its own `max_abs / 127` scale at inference time. Row
//!   independence is what keeps batched responses bit-identical to
//!   single-request responses, the same contract the f32 eval path holds.
//! - **Memory grid**: one per-tensor scale; queries are quantized onto the
//!   grid's scale so distances live on one integer lattice.
//!
//! ## Determinism contract
//!
//! Every reduction accumulates in `i32`, which is exact for int8 operands
//! at the dimensionalities this workspace uses (≤ 130 000 elements), and
//! integer addition is associative — so the quantized path is bit-identical
//! whichever int8 reduction body the build compiled in (portable or AVX2,
//! DESIGN.md §15) and at any thread count *by construction*, not by
//! lane-tree discipline. The remaining f32 arithmetic (scale products, bias adds,
//! ReLU, per-candidate score conversion) is elementwise with no cross-lane
//! interaction.
//!
//! ## EDSRSS02
//!
//! [`QuantSnapshot`] is the v2 serve-snapshot format: the same CRC-trailed
//! fsync-before-rename envelope as v1 (`edsr-wire`), magic `EDSRSS02`,
//! bundling the quantized encoder, quantized memory, CRC32s of the f32
//! originals, and the export-time accuracy [`GateReport`].

mod encoder;
mod knn;
mod snapshot;
mod tensor;

pub use encoder::{QuantEncoder, QuantLinear, QuantScratch};
pub use knn::{knn_gate, GateReport, QuantMemory};
pub use snapshot::{QuantSnapshot, QUANT_SNAPSHOT_MAGIC};
pub use tensor::{quantize_row_into, scale_for, QuantTensor};
