//! Host facts every result carries, the result file that stores them
//! beside the metrics, and the refusal to compare results taken on
//! different hosts.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// What a timing depends on besides the code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostFacts {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    /// Git commit when the checkout has one, else a fingerprint of the
    /// source tree (`tree-…`).
    pub commit: String,
}

impl HostFacts {
    pub fn detect() -> HostFacts {
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            commit: commit(Path::new(".")),
        }
    }

    fn fields(&self) -> [(&'static str, String); 4] {
        [
            ("host.nproc", self.nproc.to_string()),
            ("host.cpu_model", self.cpu_model.clone()),
            ("host.rustc", self.rustc.clone()),
            ("host.commit", self.commit.clone()),
        ]
    }

    /// One line for the run log.
    pub fn describe(&self) -> String {
        format!(
            "host: nproc={} cpu=\"{}\" rustc=\"{}\" commit={}",
            self.nproc, self.cpu_model, self.rustc, self.commit
        )
    }
}

/// Refuse a comparison unless both results come from the same host and
/// compiler; the commit is what a comparison is meant to vary.
pub fn check_same_host(baseline: &HostFacts, current: &HostFacts) -> Result<(), String> {
    let diffs: Vec<String> = baseline
        .fields()
        .iter()
        .zip(current.fields().iter())
        .filter(|((k, a), (_, b))| *k != "host.commit" && a != b)
        .map(|((k, a), (_, b))| format!("{k}: baseline \"{a}\", this run \"{b}\""))
        .collect();
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to compare against a baseline from a different host ({})",
            diffs.join("; ")
        ))
    }
}

/// A stored result: host facts plus `name -> (value, unit)` metrics, as
/// tab-separated `key value [unit]` lines.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFile {
    pub host: HostFacts,
    pub workload: String,
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl ResultFile {
    pub fn render(&self) -> String {
        let mut out = format!("workload\t{}\n", self.workload);
        for (k, v) in self.host.fields() {
            out.push_str(&format!("{k}\t{v}\n"));
        }
        for (name, (value, unit)) in &self.metrics {
            out.push_str(&format!("metric.{name}\t{value}\t{unit}\n"));
        }
        out
    }

    pub fn parse(text: &str) -> Result<ResultFile, String> {
        let mut kv = BTreeMap::new();
        let mut metrics = BTreeMap::new();
        for line in text.lines().filter(|l| !l.is_empty()) {
            let parts: Vec<&str> = line.split('\t').collect();
            match parts.as_slice() {
                [k, v, unit] if k.starts_with("metric.") => {
                    let value = v
                        .parse::<f64>()
                        .map_err(|e| format!("bad value in \"{line}\": {e}"))?;
                    metrics.insert(k["metric.".len()..].to_string(), (value, unit.to_string()));
                }
                [k, v] => {
                    kv.insert(k.to_string(), v.to_string());
                }
                _ => return Err(format!("malformed result line \"{line}\"")),
            }
        }
        let mut take = |k: &str| kv.remove(k).ok_or_else(|| format!("result lacks {k}"));
        Ok(ResultFile {
            workload: take("workload")?,
            host: HostFacts {
                nproc: take("host.nproc")?
                    .parse()
                    .map_err(|e| format!("bad host.nproc: {e}"))?,
                cpu_model: take("host.cpu_model")?,
                rustc: take("host.rustc")?,
                commit: take("host.commit")?,
            },
            metrics,
        })
    }
}

#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // The brand string lives in extended leaves 0x8000_0002..=4; CPUID
    // is part of the x86-64 baseline, so the instruction always exists.
    if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        return "unknown x86_64".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    format!("unknown {}", std::env::consts::ARCH)
}

/// The checkout's commit, read from `.git` without running git; a
/// checkout without `.git` gets a fingerprint of the sources it builds.
fn commit(root: &Path) -> String {
    git_head(root).unwrap_or_else(|| format!("tree-{:016x}", tree_fingerprint(root)))
}

fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
}

/// FNV-1a over the relative path and bytes of every file the benchmark
/// build reads, in sorted order.
fn tree_fingerprint(root: &Path) -> u64 {
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "crates", "perfbench"] {
        collect(root, &root.join(top), &mut files);
    }
    files.sort();
    let mut h = Fnv::new();
    for rel in files {
        h.bytes(rel.as_bytes());
        if let Ok(data) = fs::read(root.join(&rel)) {
            h.bytes(&data);
        }
    }
    h.finish()
}

fn collect(root: &Path, path: &Path, out: &mut Vec<String>) {
    if path.is_dir() {
        let Ok(entries) = fs::read_dir(path) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            if name.to_string_lossy().starts_with('.') || name == "target" {
                continue;
            }
            collect(root, &entry.path(), out);
        }
    } else if let Ok(rel) = path.strip_prefix(root) {
        out.push(rel.to_string_lossy().into_owned());
    }
}

/// 64-bit FNV-1a, used for the output and source fingerprints.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts() -> HostFacts {
        HostFacts {
            nproc: 2,
            cpu_model: "Some CPU".into(),
            rustc: "rustc 1.0.0".into(),
            commit: "abc".into(),
        }
    }

    #[test]
    fn same_host_other_commit_is_comparable() {
        let mut other = facts();
        other.commit = "def".into();
        assert_eq!(check_same_host(&facts(), &other), Ok(()));
    }

    #[test]
    fn different_host_is_refused_with_the_difference_named() {
        let mut other = facts();
        other.nproc = 8;
        other.cpu_model = "Other CPU".into();
        let err = check_same_host(&facts(), &other).expect_err("hosts differ");
        assert!(err.starts_with("refusing to compare"), "{err}");
        assert!(
            err.contains("host.nproc") && err.contains("Other CPU"),
            "{err}"
        );
        let mut compiler = facts();
        compiler.rustc = "rustc 2.0.0".into();
        assert!(check_same_host(&facts(), &compiler).is_err());
    }

    #[test]
    fn result_file_round_trips() {
        let mut metrics = BTreeMap::new();
        metrics.insert("setup_s".to_string(), (0.125, "s".to_string()));
        metrics.insert("iter_ms_p50".to_string(), (48.5, "ms".to_string()));
        let r = ResultFile {
            host: facts(),
            workload: "browse-tune".into(),
            metrics,
        };
        assert_eq!(ResultFile::parse(&r.render()), Ok(r));
        assert!(ResultFile::parse("workload\tx\n").is_err());
    }
}
