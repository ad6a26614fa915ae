//! Minimal hand-rolled argument parsing for `bpsim` (keeps the dependency
//! set to the workspace crates).

use std::collections::HashMap;

/// Parsed command line: positional arguments and `--key value` /
/// `--flag` options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    positional: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// Option names that take a value; everything else starting with `--` is
/// a boolean flag.
const VALUED: &[&str] = &[
    "len",
    "threads",
    "bench",
    "pred",
    "out",
    "file",
    "windows",
    "seed",
    "tol",
    "results-dir",
    "budget",
    "min-speedup",
    "min-aliasing-speedup",
];

/// Flags and valued options every command accepts.
const GLOBAL: &[&str] = &["verbose", "seed", "results-dir"];

/// The results store's flags, which only the commands that produce cells
/// accept.
const STORE: &[&str] = &["resume", "save-results"];

/// The flags of `experiment` and of `run <experiment>`.
const EXPERIMENT: &[&str] = &["quick", "csv", "len", "threads", "out"];

/// How many positional arguments, the command word included, a command
/// line takes; `None` for no limit (`compare` races any number of specs).
fn positional_limit(command: Option<&str>, subcommand: Option<&str>) -> Option<usize> {
    match (command, subcommand) {
        (Some("compare"), _) => None,
        (Some("duel"), _) => Some(3),
        (Some("campaign"), Some("diff")) => Some(4),
        (Some("experiment" | "run" | "campaign" | "results" | "trace"), _) => Some(2),
        _ => Some(1),
    }
}

impl Args {
    /// Parse raw arguments (excluding the program name) and check them
    /// against what the command (the first positional) accepts.
    ///
    /// # Errors
    ///
    /// Returns a message when a valued option is missing its value, when
    /// the command does not accept a flag or option, or when `--len` or
    /// `--threads` is zero.
    pub fn parse(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = Args::default();
        let mut iter = raw.into_iter();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if VALUED.contains(&name) {
                    let value = iter
                        .next()
                        .ok_or_else(|| format!("option --{name} requires a value"))?;
                    args.options.insert(name.to_string(), value);
                } else {
                    args.flags.push(name.to_string());
                }
            } else {
                args.positional.push(arg);
            }
        }
        args.check()?;
        Ok(args)
    }

    /// The command's name in messages, the flags and valued options it
    /// accepts on top of [`GLOBAL`], and whether it produces cells (and
    /// so accepts [`STORE`]); `None` for an unknown command. Each form of
    /// `run` (an experiment, `--pred`, `--pred --windows`) accepts only
    /// the flags it honours.
    fn accepted(&self) -> Option<(&'static str, &'static [&'static str], bool)> {
        Some(match self.positional(0) {
            None => ("bpsim", &["help"], false),
            Some("help") => ("help", &[], false),
            Some("list") => ("list", &[], false),
            Some("experiment") => ("experiment", EXPERIMENT, true),
            Some("run") => match (self.option("pred"), self.option("windows")) {
                (None, _) => ("run <experiment>", EXPERIMENT, true),
                (Some(_), None) => ("run --pred", &["pred", "bench", "len", "threads"], true),
                (Some(_), Some(_)) => {
                    ("run --windows", &["pred", "bench", "len", "windows"], false)
                }
            },
            Some("compare") => ("compare", &["bench", "len"], true),
            Some("duel") => ("duel", &["bench", "len"], false),
            Some("sweep") => ("sweep", &["pred", "bench", "len"], true),
            Some("bench") => (
                "bench",
                &[
                    "quick",
                    "out",
                    "threads",
                    "min-speedup",
                    "min-aliasing-speedup",
                ],
                false,
            ),
            Some("campaign") => ("campaign", &["quick", "out", "threads", "len", "tol"], true),
            Some("results") => ("results", &["budget"], false),
            Some("trace") => ("trace", &["bench", "len", "out", "file"], false),
            Some(_) => return None,
        })
    }

    /// Reject flags and options the command does not accept, surplus
    /// positional arguments, and zero trace lengths or thread counts.
    /// An unknown command is left for the dispatcher to report.
    fn check(&self) -> Result<(), String> {
        let command = self.positional(0);
        let Some((label, accepted, cells)) = self.accepted() else {
            return Ok(());
        };
        let names = self.flags.iter().chain(self.options.keys());
        for name in names.map(String::as_str) {
            let store = cells && STORE.contains(&name);
            if !GLOBAL.contains(&name) && !accepted.contains(&name) && !store {
                return Err(format!(
                    "`{label}` does not accept --{name}; try `bpsim help`"
                ));
            }
        }
        // After the flags: an unknown flag's value reads as a positional.
        if let Some(limit) = positional_limit(command, self.positional(1)) {
            if let Some(surplus) = self.positional(limit) {
                let command = command.unwrap_or("bpsim");
                return Err(format!(
                    "`{command}` does not take the argument `{surplus}`; try `bpsim help`"
                ));
            }
        }
        for name in ["len", "threads"] {
            if self.option_u64(name)? == Some(0) {
                return Err(format!("--{name} must be at least 1"));
            }
        }
        Ok(())
    }

    /// Positional argument `i`, if present.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// String value of `--name`.
    pub fn option(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// Parsed numeric value of `--name`. Accepts decimal or `0x`-prefixed
    /// hexadecimal (seeds read naturally either way).
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn option_u64(&self, name: &str) -> Result<Option<u64>, String> {
        match self.option(name) {
            None => Ok(None),
            Some(v) => {
                let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                parsed
                    .map(Some)
                    .map_err(|_| format!("--{name} expects an integer, got `{v}`"))
            }
        }
    }

    /// Parsed floating-point value of `--name`.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn option_f64(&self, name: &str) -> Result<Option<f64>, String> {
        match self.option(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name} expects a number, got `{v}`")),
        }
    }

    /// Whether `--name` was given as a flag.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        try_parse(s).unwrap()
    }

    fn try_parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn positionals_and_options() {
        let a = parse("experiment fig5 --len 100000 --quick");
        assert_eq!(a.positional(0), Some("experiment"));
        assert_eq!(a.positional(1), Some("fig5"));
        assert_eq!(a.option_u64("len").unwrap(), Some(100_000));
        assert!(a.flag("quick"));
        assert!(!a.flag("csv"));
    }

    #[test]
    fn missing_value_is_an_error() {
        let e = Args::parse(vec!["--len".to_string()]).unwrap_err();
        assert!(e.contains("--len"));
    }

    #[test]
    fn bad_number_is_an_error() {
        let e = try_parse("run --len abc").unwrap_err();
        assert!(e.contains("--len expects an integer"), "{e}");
    }

    #[test]
    fn valued_option_values_may_look_like_flags() {
        let a = parse("run --pred gskew:n=12,h=8");
        assert_eq!(a.option("pred"), Some("gskew:n=12,h=8"));
    }

    #[test]
    fn seeds_parse_in_decimal_and_hex() {
        let a = parse("run --seed 0x5EED0000");
        assert_eq!(a.option_u64("seed").unwrap(), Some(0x5EED_0000));
        let a = parse("run --seed 1234");
        assert_eq!(a.option_u64("seed").unwrap(), Some(1234));
        assert!(parse("run --seed 0xZZ").option_u64("seed").is_err());
    }

    #[test]
    fn tolerances_parse_as_floats() {
        let a = parse("campaign diff a b --tol 0.25");
        assert_eq!(a.option_f64("tol").unwrap(), Some(0.25));
        assert!(parse("campaign diff a b --tol wide")
            .option_f64("tol")
            .is_err());
    }

    #[test]
    fn flags_and_options_are_checked_per_command() {
        let e = try_parse("campaign quick --reusme").unwrap_err();
        assert!(e.contains("`campaign` does not accept --reusme"), "{e}");
        // The trace cache has no off switch.
        let e = try_parse("experiment all --quick --no-trace-cache").unwrap_err();
        assert!(
            e.contains("`experiment` does not accept --no-trace-cache"),
            "{e}"
        );
        let e = try_parse("--frobnicate").unwrap_err();
        assert!(e.contains("--frobnicate"), "{e}");
        // Known elsewhere, but not accepted by this command.
        let e = try_parse("list --len 100").unwrap_err();
        assert!(e.contains("`list` does not accept --len"), "{e}");
        assert!(try_parse("compare gshare:n=8 --windows 4").is_err());
        assert!(try_parse("results stats --csv").is_err());
        // Global flags and options go with every command; an unknown
        // command is the dispatcher's to report.
        parse("list --verbose --seed 7 --results-dir d");
        parse("frobnicate --whatever");
    }

    #[test]
    fn store_flags_and_run_forms_are_checked_per_command() {
        // The store flags go only with the commands that produce cells.
        for flag in ["--resume", "--save-results"] {
            for line in [
                "experiment fig5",
                "run fig5",
                "run --pred gshare",
                "compare gshare",
                "sweep --pred gshare:h={h}",
                "campaign quick",
            ] {
                assert!(
                    try_parse(&format!("{line} {flag}")).is_ok(),
                    "{line} {flag}"
                );
            }
            for (line, label) in [
                ("duel a b", "duel"),
                ("run --pred gshare --windows 4", "run --windows"),
                ("trace info --file t", "trace"),
                ("results stats", "results"),
                ("bench", "bench"),
                ("list", "list"),
            ] {
                let e = try_parse(&format!("{line} {flag}")).unwrap_err();
                let named = format!("`{label}` does not accept {flag}");
                assert!(e.contains(&named), "{line}: {e}");
            }
        }
        // Each form of `run` rejects the flags it would ignore.
        for (line, named) in [
            (
                "run --pred gshare --quick",
                "`run --pred` does not accept --quick",
            ),
            (
                "run --pred gshare --csv",
                "`run --pred` does not accept --csv",
            ),
            (
                "run --pred gshare --out d",
                "`run --pred` does not accept --out",
            ),
            (
                "run --pred gshare --windows 4 --threads 2",
                "`run --windows` does not accept --threads",
            ),
            (
                "run fig5 --bench gs",
                "`run <experiment>` does not accept --bench",
            ),
            (
                "run fig5 --windows 4",
                "`run <experiment>` does not accept --windows",
            ),
        ] {
            let e = try_parse(line).unwrap_err();
            assert!(e.contains(named), "{line}: {e}");
        }
        parse("run --pred gshare --threads 2 --bench gs --len 100");
    }

    #[test]
    fn surplus_positionals_are_rejected_per_command() {
        for (line, surplus) in [
            ("experiment fig5 fig6", "fig6"),
            ("run fig5 fig6", "fig6"),
            ("duel gshare:n=8 gskew:n=8 bimodal:n=8", "bimodal:n=8"),
            ("list bogus", "bogus"),
            ("help me", "me"),
            ("sweep gskew:n=8,h={h}", "gskew:n=8,h={h}"),
            ("bench extra", "extra"),
            ("campaign list extra", "extra"),
            ("campaign quick extra", "extra"),
            ("campaign diff a b c", "c"),
            ("results stats extra", "extra"),
            ("trace info extra", "extra"),
        ] {
            let e = try_parse(line).unwrap_err();
            assert!(e.contains(&format!("argument `{surplus}`")), "{line}: {e}");
        }
        // Each command's full positional count still parses, and
        // `compare` takes any number of specs.
        for line in [
            "experiment fig5",
            "duel gshare:n=8 gskew:n=8",
            "campaign diff a b",
            "results gc --budget 1",
            "compare a b c d e f",
        ] {
            assert!(try_parse(line).is_ok(), "{line}");
        }
    }

    #[test]
    fn zero_lengths_and_thread_counts_are_rejected() {
        let e = try_parse("experiment fig5 --len 0").unwrap_err();
        assert!(e.contains("--len must be at least 1"), "{e}");
        let e = try_parse("campaign quick --threads 0").unwrap_err();
        assert!(e.contains("--threads must be at least 1"), "{e}");
        assert!(try_parse("trace gen --bench gs --len 0x0 --out f").is_err());
    }

    #[test]
    fn scripted_command_lines_still_parse() {
        // The command lines CI and the benchmark pass.
        for line in [
            "campaign quick --out campaign.json",
            "campaign diff baselines/quick-campaign.json campaign.json --tol 0",
            "bench --quick --out BENCH_kernels.json --min-speedup 1.0 --min-aliasing-speedup 1.0",
            "experiment all --quick --out tables --threads 2 --seed 1592590336 --len 3000",
            "campaign quick --save-results --results-dir store --out a.json --threads 2 --seed 1",
            "campaign quick --resume --results-dir store --out w.json --threads 2 --seed 1",
            "experiment fig5 --quick --save-results --results-dir s --out t --threads 2 --seed 1",
            "run --pred gshare:n=8,h=4 --bench verilog --len 6000 --windows 6",
            "sweep --pred gskew:n=8,h={h} --bench gs --len 100",
            "results gc --budget 1000 --results-dir d",
            "trace info --file t.bpt2",
        ] {
            assert!(try_parse(line).is_ok(), "{line}");
        }
    }
}
