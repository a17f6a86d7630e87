//! What a result record is stamped with: the source it measured and the
//! host it ran on.

use std::path::Path;

use trrip_obs::json;

/// The identity of one run, printed with every result record.
#[derive(Debug, Clone)]
pub struct Stamp {
    pub commit: String,
    pub source_digest: String,
    pub host_cores: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub jobs: usize,
    pub seed: u64,
    pub run_seconds: f64,
}

impl Stamp {
    pub fn collect(jobs: usize, seed: u64, run_seconds: f64) -> Stamp {
        Stamp {
            commit: git_head(Path::new(".")).unwrap_or_else(|| "unknown".to_owned()),
            source_digest: format!("fnv64:{:016x}", source_digest(Path::new("."))),
            host_cores: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model: cpu_model(),
            rustc: rustc_version(),
            jobs,
            seed,
            run_seconds,
        }
    }

    /// The stamp as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (key, value)) in [
            ("commit", &self.commit),
            ("source_digest", &self.source_digest),
            ("cpu_model", &self.cpu_model),
            ("rustc", &self.rustc),
        ]
        .into_iter()
        .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, key);
            out.push(':');
            json::write_str(&mut out, value);
        }
        out.push_str(&format!(
            ",\"host_cores\":{},\"jobs\":{},\"seed\":{},\"run_seconds\":",
            self.host_cores, self.jobs, self.seed
        ));
        json::write_f64(&mut out, self.run_seconds);
        out.push('}');
        out
    }
}

/// The commit `HEAD` names, read from `.git` without running git (a
/// source checkout without `.git` has none).
fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| line.strip_suffix(reference).map(|id| id.trim().to_owned()))
}

/// FNV-1a over the workspace manifests and every file under `crates/`
/// and `perfbench/src/`, in path order: identifies the measured source
/// when there is no commit to name.
fn source_digest(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["crates", "perfbench/src"] {
        collect_files(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for path in files {
        let Ok(bytes) = std::fs::read(&path) else { continue };
        for b in path.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&entry.path(), out),
            Ok(t) if t.is_file() => out.push(entry.path()),
            _ => {}
        }
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// The processor brand string (x86 CPUID leaves 0x8000_0002..4).
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    #[allow(unused_unsafe)]
    // SAFETY: CPUID is available on every x86_64 processor.
    let max = unsafe { __cpuid(0x8000_0000) }.eax;
    if max < 0x8000_0004 {
        return "unknown".to_owned();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        #[allow(unused_unsafe)]
        // SAFETY: as above; the leaf is within the reported range.
        let r = unsafe { __cpuid(leaf) };
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes).trim_matches(char::from(0)).trim().to_owned()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".to_owned()
}

/// Restarts the kernel's peak-resident-set mark (`VmHWM`) from the
/// current resident set, so [`peak_rss_mb`] then reports the peak of what
/// runs next (Linux `/proc/self/clear_refs`, value 5).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set since start or the last
/// [`reset_peak_rss`], in MiB (`VmHWM` of `/proc/self/status`; 0 where
/// the kernel does not report it).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
