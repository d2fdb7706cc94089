//! A minimal `--key value` command-line parser (no external dependency).

use std::collections::HashMap;

/// Parsed command-line options of a harness binary.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
}

impl Args {
    /// Parses `--key value` and `--flag` pairs from `std::env::args()`.
    pub fn from_env() -> Self {
        Self::from_iter(std::env::args().skip(1))
    }

    /// String option with a default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.values.get(key).cloned().unwrap_or_else(|| default.to_string())
    }

    /// Numeric option with a default for an absent key; a value that is
    /// present but does not parse is an error naming it, never a silent
    /// default.
    pub fn try_get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(value) => value.parse().map_err(|_| format!("invalid --{key} {value:?}")),
        }
    }

    /// [`Self::try_get`] for a harness binary's `main`: prints the error
    /// and exits non-zero on an unparsable value.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.try_get(key, default).unwrap_or_else(|message| {
            eprintln!("{message}");
            std::process::exit(2)
        })
    }

    /// Boolean flag.
    pub fn flag(&self, key: &str) -> bool {
        matches!(self.values.get(key).map(String::as_str), Some("true") | Some("1") | Some("yes"))
    }
}

/// Parses `--key value` and `--flag` pairs from an explicit iterator (used
/// by [`Args::from_env`] and by tests).
impl FromIterator<String> for Args {
    fn from_iter<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut values = HashMap::new();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else { continue };
            let value = match iter.peek() {
                Some(next) if !next.starts_with("--") => iter.next().unwrap(),
                _ => "true".to_string(),
            };
            values.insert(key.to_string(), value);
        }
        Self { values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::from_iter(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_key_value_pairs_and_flags() {
        let a = args(&["--series", "1000", "--dataset", "cer", "--verbose"]);
        assert_eq!(a.get("series", 0usize), 1000);
        assert_eq!(a.get_str("dataset", "numed"), "cer");
        assert!(a.flag("verbose"));
        assert!(!a.flag("quiet"));
    }

    #[test]
    fn falls_back_to_defaults() {
        let a = args(&[]);
        assert_eq!(a.get("series", 42usize), 42);
        assert_eq!(a.get_str("dataset", "cer"), "cer");
    }

    #[test]
    fn try_get_defaults_only_an_absent_key() {
        let a = args(&["--series", "abc", "--runs", "3", "--max-population", "10k"]);
        assert_eq!(a.try_get("scale", 7usize), Ok(7));
        assert_eq!(a.try_get("runs", 7usize), Ok(3));
        assert_eq!(a.try_get("series", 7usize), Err("invalid --series \"abc\"".to_string()));
        assert_eq!(a.try_get("max-population", 1_000_000usize), Err("invalid --max-population \"10k\"".to_string()));
    }
}
