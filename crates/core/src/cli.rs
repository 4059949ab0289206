//! Tiny shared argument-parsing helpers for the command-line binaries.
//!
//! The `scenarios`, `all_experiments` and `search` binaries parse flags by
//! consuming an argument iterator left to right; sharing the value-taking
//! helpers keeps their semantics identical (a flag's value is the next
//! argument, consumed — so `--json --csv out.csv` fails loudly on the
//! missing path instead of silently treating `--csv` as a file name... the
//! caller still decides what to do with unknown flags).

/// Takes the next argument as `flag`'s value, exiting with status 2 and a
/// message when the iterator is exhausted or the next argument is itself a
/// flag.
pub fn required_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    match args.next() {
        Some(value) if !value.starts_with("--") => value,
        Some(other) => {
            eprintln!("{flag} requires an argument, got flag {other:?}");
            std::process::exit(2);
        }
        None => {
            eprintln!("{flag} requires an argument");
            std::process::exit(2);
        }
    }
}

/// Like [`required_value`], additionally parsing the value; exits with
/// status 2 on a parse failure.
pub fn parsed_value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> T {
    let raw = required_value(args, flag);
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{flag} could not parse {raw:?}");
        std::process::exit(2);
    })
}
