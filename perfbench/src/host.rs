//! Host facts printed with every result, so each number is attributable
//! to a machine and a version of the code.

use std::path::Path;

/// What the numbers were measured on.
pub struct Facts {
    nproc: usize,
    threads: usize,
    pool_workers: usize,
    isa_detected: &'static str,
    isa_active: &'static str,
    commit: String,
    source_digest: String,
}

impl Facts {
    /// Pins the compute threads to `nproc` (the CLI default) and reads
    /// the rest. Must run before any parallel work.
    pub fn collect() -> Result<Self, String> {
        if !Path::new("crates").is_dir() {
            return Err("run from the repository root: no crates/ directory here".into());
        }
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        edsr_par::set_threads(nproc);
        Ok(Self {
            nproc,
            threads: edsr_par::configured_threads(),
            pool_workers: edsr_par::pool_workers(),
            isa_detected: edsr_tensor::simd::detect().name(),
            isa_active: edsr_tensor::simd::active_isa().name(),
            commit: commit().unwrap_or_else(|| "unknown".into()),
            source_digest: format!("{:016x}", source_digest()?),
        })
    }

    /// One JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"threads\": {}, \"pool_workers\": {}, \"isa_detected\": \"{}\", \
             \"isa_active\": \"{}\", \"commit\": \"{}\", \"source_digest\": \"{}\"}}",
            self.nproc,
            self.threads,
            self.pool_workers,
            self.isa_detected,
            self.isa_active,
            self.commit,
            self.source_digest
        )
    }
}

/// The checked-out commit, when the tree is a git work tree.
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// FNV-1a over the path and bytes of every source and build file, in
/// sorted order: identifies the code measured even where the checkout
/// carries no git metadata.
fn source_digest() -> Result<u64, String> {
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "Cargo.lock",
        ".cargo",
        "crates",
        "perfbench/Cargo.toml",
        "perfbench/src",
    ] {
        collect(Path::new(root), &mut files)?;
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in &files {
        let bytes = std::fs::read(file).map_err(|e| format!("read {}: {e}", file.display()))?;
        feed(file.to_string_lossy().as_bytes());
        feed(&bytes);
    }
    Ok(hash)
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) -> Result<(), String> {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if path.is_dir() {
        let entries =
            std::fs::read_dir(path).map_err(|e| format!("list {}: {e}", path.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("list {}: {e}", path.display()))?;
            collect(&entry.path(), out)?;
        }
    }
    Ok(())
}
