//! Command-line arguments.

use crate::workload::Workload;

/// One-line usage, printed on a usage error.
pub const USAGE: &str =
    "usage: qtda-frontbench --workload <gearbox-stream|persist-bulk|repeat-sharded> \
                         --seed <u64> --seconds <1-60> --trace <0|1>";

/// A validated invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Args {
    /// Which traffic mix to drive.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measured-phase length (a traced run splits it into an untraced
    /// and a traced half).
    pub seconds: u64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
}

impl Args {
    /// Parses `--flag value` pairs; every flag is required.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => {
                    seed = Some(value.parse::<u64>().map_err(|e| format!("--seed {value:?}: {e}"))?)
                }
                "--seconds" => {
                    let s =
                        value.parse::<u64>().map_err(|e| format!("--seconds {value:?}: {e}"))?;
                    if !(1..=60).contains(&s) {
                        return Err(format!("--seconds {s} is outside 1-60"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace {value:?} is not 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_invocation() {
        let args =
            Args::parse(&argv("--workload persist-bulk --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(
            args,
            Args { workload: Workload::PersistBulk, seed: 7, seconds: 20, trace: true }
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Args::parse(&argv("--workload nope --seed 1 --seconds 5 --trace 0")).is_err());
        assert!(
            Args::parse(&argv("--workload gearbox-stream --seed 1 --seconds 0 --trace 0")).is_err()
        );
        assert!(Args::parse(&argv("--workload gearbox-stream --seed 1 --seconds 5")).is_err());
        assert!(
            Args::parse(&argv("--workload gearbox-stream --seed 1 --seconds 5 --trace 2")).is_err()
        );
    }
}
