//! A minimal `--key value` command-line parser (no external dependency).

use std::collections::HashMap;
use std::str::FromStr;

/// Parsed command-line options of a harness binary.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
}

/// Prints a command-line error and exits with status 2: what every harness
/// binary does with a value it cannot use.
pub fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
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
    pub fn try_get<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(value) => value.parse().map_err(|_| format!("invalid --{key} {value:?}")),
        }
    }

    /// [`Self::try_get`] for a harness binary's `main`: prints the error
    /// and exits non-zero on an unparsable value.
    pub fn get<T: FromStr>(&self, key: &str, default: T) -> T {
        self.try_get(key, default).unwrap_or_else(|message| usage_error(&message))
    }

    /// Comma-separated list option; an absent key parses `default`.  One
    /// element that does not parse makes the whole value an error naming the
    /// flag and that element.
    pub fn try_get_list<T: FromStr>(&self, key: &str, default: &str) -> Result<Vec<T>, String> {
        let value = self.values.get(key).map_or(default, String::as_str);
        value
            .split(',')
            .map(|element| {
                element.trim().parse().map_err(|_| {
                    format!("invalid --{key} {value:?}: expected a comma-separated list, and {element:?} does not parse")
                })
            })
            .collect()
    }

    /// [`Self::try_get_list`] for a harness binary's `main`.
    pub fn get_list<T: FromStr>(&self, key: &str, default: &str) -> Vec<T> {
        self.try_get_list(key, default).unwrap_or_else(|message| usage_error(&message))
    }

    /// Option restricted to `choices`, `default` for an absent key; any
    /// other value is an error naming the flag and the accepted values.
    pub fn try_get_choice<'c>(&self, key: &str, default: &'c str, choices: &[&'c str]) -> Result<&'c str, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(value) => choices
                .iter()
                .copied()
                .find(|choice| choice == value)
                .ok_or_else(|| format!("invalid --{key} {value:?}: expected one of {}", choices.join(", "))),
        }
    }

    /// [`Self::try_get_choice`] for a harness binary's `main`.
    pub fn get_choice<'c>(&self, key: &str, default: &'c str, choices: &[&'c str]) -> &'c str {
        self.try_get_choice(key, default, choices).unwrap_or_else(|message| usage_error(&message))
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

    #[test]
    fn try_get_list_parses_every_element_or_names_the_bad_one() {
        let a = args(&["--shard-counts", "1, 2,4", "--fractions", "0,x,0.2"]);
        assert_eq!(a.try_get_list::<f64>("absent", "0,0.05"), Ok(vec![0.0, 0.05]));
        assert_eq!(a.try_get_list::<usize>("shard-counts", "1"), Ok(vec![1, 2, 4]));
        let rejected = a.try_get_list::<f64>("fractions", "0").expect_err("x is not a fraction");
        assert!(rejected.starts_with("invalid --fractions \"0,x,0.2\"") && rejected.contains("\"x\""), "{rejected}");
    }

    #[test]
    fn try_get_choice_accepts_only_the_listed_values() {
        let choices = ["sum", "decryption", "all"];
        let a = args(&["--part", "sum", "--metric", "xyz"]);
        assert_eq!(a.try_get_choice("absent", "all", &choices), Ok("all"));
        assert_eq!(a.try_get_choice("part", "all", &choices), Ok("sum"));
        assert_eq!(
            a.try_get_choice("metric", "all", &choices),
            Err("invalid --metric \"xyz\": expected one of sum, decryption, all".to_string())
        );
    }
}
