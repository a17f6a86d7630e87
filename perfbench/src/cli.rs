//! Command line: `--workload NAME --seed N --seconds S --trace 0|1`.

use crate::workload::Workload;

/// The seed that reproduces the repository's own input constants: the
/// spec train/eval seeds are left exactly as `trrip_workloads::proxy`
/// defines them.
pub const DEFAULT_SEED: u64 = 0;

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub const USAGE: &str = "usage: perfbench --workload walker_large|store_populate|store_warm \
[--seed N] [--seconds S] [--trace 0|1]";

impl Args {
    /// Parses the arguments after the program name.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(
                        Workload::by_name(&name)
                            .ok_or_else(|| format!("unknown workload `{name}`"))?,
                    );
                }
                "--seed" => {
                    let v = value()?;
                    seed =
                        v.parse().map_err(|_| format!("--seed must be an integer, got `{v}`"))?;
                }
                "--seconds" => {
                    let v = value()?;
                    seconds = v
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--seconds must be positive, got `{v}`"))?;
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                    };
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args { workload, seed, seconds, trace })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a =
            parse(&["--workload", "store_warm", "--seed", "7", "--seconds", "20", "--trace", "1"])
                .expect("valid");
        assert_eq!(a, Args { workload: Workload::StoreWarm, seed: 7, seconds: 20.0, trace: true });
    }

    #[test]
    fn the_manifest_records_the_seeds_and_the_frozen_legacy_files() {
        let doc = trrip_obs::json::parse(crate::MANIFEST).expect("manifest parses");
        assert_eq!(doc.get("default_seed").and_then(|v| v.as_u64()), Some(DEFAULT_SEED));
        let held_out = doc.get("held_out_seed").and_then(|v| v.as_u64()).expect("held-out seed");
        assert_ne!(held_out, DEFAULT_SEED);
        let files = doc
            .get("legacy_frozen")
            .and_then(|l| l.get("files"))
            .and_then(|f| f.as_arr())
            .expect("legacy file list");
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut on_disk: Vec<String> = std::fs::read_dir(&root)
            .expect("repository root")
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect();
        on_disk.sort();
        let listed: Vec<String> =
            files.iter().map(|f| f.as_str().expect("file name").to_owned()).collect();
        assert_eq!(listed, on_disk, "every legacy BENCH_*.json is listed as frozen");
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "walker_large", "--trace", "2"],
            &["--workload", "walker_large", "--seconds", "0"],
            &["--workload", "walker_large", "--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
