//! The run header and the result line.

use crate::artifact;
use crate::traffic::Workload;
use mpirical::model::ModelConfig;
use mpirical::Precision;
use std::fmt::Write as _;
use std::path::Path;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What a result was measured on.
#[derive(Debug, Clone)]
pub struct Header {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub cores: usize,
    pub isa: Vec<(&'static str, bool)>,
    pub shape: ModelConfig,
    pub precision: Precision,
    pub engine_workers: usize,
    pub lanes_per_worker: usize,
    pub git_rev: String,
    pub source_digest: String,
}

impl Header {
    pub fn lines(&self) -> Vec<String> {
        let s = &self.shape;
        let isa: Vec<String> = self
            .isa
            .iter()
            .map(|(f, on)| format!("{f}={}", if *on { "yes" } else { "no" }))
            .collect();
        vec![
            format!(
                "workload {} seed {} seconds {} trace {}",
                self.workload.name(),
                self.seed,
                self.seconds,
                u8::from(self.trace)
            ),
            format!("host cores {} isa {}", self.cores, isa.join(" ")),
            format!(
                "model d_model {} heads {} d_ff {} enc_layers {} dec_layers {} \
                 max_enc_len {} max_dec_len {} vocab {} (untrained, seed {:#x})",
                s.d_model,
                s.n_heads,
                s.d_ff,
                s.n_enc_layers,
                s.n_dec_layers,
                s.max_enc_len,
                s.max_dec_len,
                s.vocab_size,
                artifact::MODEL_SEED
            ),
            format!(
                "precision {:?} verification off engine workers {} lanes/worker {}",
                self.precision, self.engine_workers, self.lanes_per_worker
            ),
            format!(
                "git rev {} source digest {}",
                self.git_rev, self.source_digest
            ),
        ]
    }

    fn json(&self) -> String {
        let s = &self.shape;
        let isa: Vec<String> = self
            .isa
            .iter()
            .map(|(f, on)| format!("\"{f}\":{on}"))
            .collect();
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"cores\":{},\
             \"isa\":{{{}}},\"d_model\":{},\"n_heads\":{},\"d_ff\":{},\"n_enc_layers\":{},\
             \"n_dec_layers\":{},\"max_enc_len\":{},\"max_dec_len\":{},\"vocab\":{},\
             \"precision\":\"{:?}\",\"verify\":false,\"engine_workers\":{},\"lanes_per_worker\":{},\
             \"git_rev\":\"{}\",\"source_digest\":\"{}\"}}",
            self.workload.name(),
            self.seed,
            self.seconds,
            self.trace,
            self.cores,
            isa.join(","),
            s.d_model,
            s.n_heads,
            s.d_ff,
            s.n_enc_layers,
            s.n_dec_layers,
            s.max_enc_len,
            s.max_dec_len,
            s.vocab_size,
            self.precision,
            self.engine_workers,
            self.lanes_per_worker,
            self.git_rev,
            self.source_digest
        )
    }
}

/// ISA flags the kernels can dispatch on.
pub fn isa_flags() -> Vec<(&'static str, bool)> {
    #[cfg(target_arch = "x86_64")]
    {
        vec![
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
            (
                "avx512_vnni",
                std::arch::is_x86_feature_detected!("avx512vnni"),
            ),
        ]
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        vec![("avx2", false), ("avx512f", false), ("avx512_vnni", false)]
    }
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark may run from an export that has no `.git`, hence the
/// source digest as well.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "none".to_string())
}

/// FNV-1a digest over every `.rs` and `Cargo.toml` file under `dirs`
/// (paths sorted), identifying the code a result was measured on.
pub fn source_digest(root: &Path, dirs: &[&str]) -> String {
    let mut files = Vec::new();
    for d in dirs {
        collect(&root.join(d), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in rel.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x} ({} files)", files.len())
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let name = p.file_name().map(|n| n.to_string_lossy().into_owned());
        if p.is_dir() {
            if name.as_deref() != Some("target") {
                collect(&p, out);
            }
        } else if p.extension().is_some_and(|x| x == "rs") || name.as_deref() == Some("Cargo.toml")
        {
            out.push(p);
        }
    }
}

/// A JSON number with all its digits (non-finite values become `null`).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The result line: the last line of the output, read by whatever runs
/// the benchmark.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics_json(metrics)
    )
}

/// The full record written next to the benchmark: header, every metric
/// (reported or not), and the correctness findings.
pub fn record_json(header: &Header, line: &str, extra: &[Metric], problems: &[String]) -> String {
    let mut out = String::new();
    let problems: Vec<String> = problems
        .iter()
        .map(|p| format!("\"{}\"", p.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    let _ = write!(
        out,
        "{{\"header\":{},\"result\":{},\"also\":{},\"problems\":[{}]}}",
        header.json(),
        line,
        metrics_json(extra),
        problems.join(",")
    );
    out
}
