//! The policy manifest: which paths each rule applies to.
//!
//! Parsed from `chiarolint.toml` at the repo root with a hand-rolled
//! reader for the TOML subset the manifest needs (two sections, string
//! and single-line string-array values, `#` comments) — the linter is
//! dependency-free by design.

use std::collections::BTreeMap;

use crate::Rule;

/// Path scoping for every rule.  All paths are repo-relative with `/`
/// separators and match whole path components (`crates/node` matches
/// `crates/node/src/lib.rs` but not `crates/nodex/...`).
#[derive(Debug, Clone, Default)]
pub struct Policy {
    /// Path prefixes the walker skips entirely (fixtures, vendored code).
    pub exclude: Vec<String>,
    /// Crates whose code is protocol-critical: D2 applies here.
    pub protocol_paths: Vec<String>,
    /// Wire-facing paths: P1 applies here.
    pub wire_paths: Vec<String>,
    /// Approved seed-mix helper names for D3.
    pub seed_mixers: Vec<String>,
    /// Per-rule path prefixes where the rule is switched off wholesale.
    pub allows: BTreeMap<String, Vec<String>>,
}

/// Whether `rel` lives under `prefix` on path-component boundaries.
fn under(rel: &str, prefix: &str) -> bool {
    rel.strip_prefix(prefix)
        .map(|rest| rest.is_empty() || rest.starts_with('/'))
        .unwrap_or(false)
}

impl Policy {
    /// Parses the manifest text.
    pub fn parse(text: &str) -> Result<Policy, String> {
        let mut policy = Policy::default();
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                if section != "chiarolint" && section != "allow" {
                    return Err(format!("line {lineno}: unknown section [{section}]"));
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {lineno}: expected `key = value`, got `{line}`"));
            };
            let key = key.trim();
            let values = parse_value(value.trim())
                .map_err(|e| format!("line {lineno}: {e}"))?;
            match (section.as_str(), key) {
                ("chiarolint", "exclude") => policy.exclude = values,
                ("chiarolint", "protocol_crates") => policy.protocol_paths = values,
                ("chiarolint", "wire_paths") => policy.wire_paths = values,
                ("chiarolint", "seed_mixers") => policy.seed_mixers = values,
                ("allow", rule) => {
                    if Rule::parse(rule).is_none() {
                        return Err(format!("line {lineno}: unknown rule `{rule}` in [allow]"));
                    }
                    policy.allows.insert(rule.to_string(), values);
                }
                _ => return Err(format!("line {lineno}: unknown key `{key}` in [{section}]")),
            }
        }
        Ok(policy)
    }

    /// Whether the walker should skip `rel` entirely.
    pub fn is_excluded(&self, rel: &str) -> bool {
        self.exclude.iter().any(|p| under(rel, p))
    }

    /// Whether `rel` is test-only code (tests/, benches/ trees): D2, D3
    /// and P1 skip it — test seeds are deliberately pinned literals and
    /// test panics are assertions.
    pub fn is_test_path(&self, rel: &str) -> bool {
        rel.split('/').any(|part| part == "tests" || part == "benches")
    }

    /// Whether D2 (hash-iteration) applies to `rel`.
    pub fn is_protocol_path(&self, rel: &str) -> bool {
        self.protocol_paths.iter().any(|p| under(rel, p))
    }

    /// Whether P1 (panic policy) applies to `rel`.
    pub fn is_wire_path(&self, rel: &str) -> bool {
        self.wire_paths.iter().any(|p| under(rel, p))
    }

    /// Whether `rule` is switched off for `rel` by the manifest.
    pub fn is_allowed(&self, rule: Rule, rel: &str) -> bool {
        self.allows
            .get(&rule.to_string())
            .map(|paths| paths.iter().any(|p| under(rel, p)))
            .unwrap_or(false)
    }
}

/// Drops a `#` comment unless the `#` sits inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses `"str"` or `["a", "b"]` (single-line arrays only).
fn parse_value(value: &str) -> Result<Vec<String>, String> {
    if let Some(inner) = value.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| "unclosed array (arrays must be single-line)".to_string())?;
        let mut out = Vec::new();
        for item in split_items(inner) {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            out.push(parse_string(item)?);
        }
        return Ok(out);
    }
    Ok(vec![parse_string(value)?])
}

/// Splits an array body on commas outside quotes.
fn split_items(inner: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    for (i, c) in inner.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                out.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&inner[start..]);
    out
}

/// Parses one `"quoted"` string (no escapes — paths and identifiers only).
fn parse_string(item: &str) -> Result<String, String> {
    item.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(|s| s.to_string())
        .ok_or_else(|| format!("expected a quoted string, got `{item}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = r#"
# test manifest
[chiarolint]
exclude = ["crates/chiarolint/fixtures"]
protocol_crates = ["crates/crypto", "crates/gossip"]
wire_paths = ["crates/node/src"]
seed_mixers = ["mix", "stream_rng"]

[allow]
D1 = ["crates/bench"]
"#;

    #[test]
    fn parses_sections_keys_and_arrays() {
        let p = Policy::parse(MANIFEST).unwrap();
        assert_eq!(p.protocol_paths.len(), 2);
        assert_eq!(p.seed_mixers, vec!["mix".to_string(), "stream_rng".to_string()]);
        assert!(p.is_excluded("crates/chiarolint/fixtures/d1_fires.rs"));
        assert!(!p.is_excluded("crates/chiarolint/src/lib.rs"));
    }

    #[test]
    fn path_matching_is_component_wise() {
        let p = Policy::parse(MANIFEST).unwrap();
        assert!(p.is_wire_path("crates/node/src/frame.rs"));
        assert!(!p.is_wire_path("crates/node/tests/roundtrip.rs"));
        assert!(p.is_protocol_path("crates/gossip/src/engine.rs"));
        assert!(!p.is_protocol_path("crates/gossip2/src/engine.rs"));
        assert!(p.is_allowed(Rule::D1, "crates/bench/src/lib.rs"));
        assert!(!p.is_allowed(Rule::D1, "crates/core/src/runner.rs"));
        assert!(!p.is_allowed(Rule::D2, "crates/bench/src/lib.rs"));
    }

    #[test]
    fn test_paths_are_component_wise() {
        let p = Policy::default();
        assert!(p.is_test_path("tests/scenario_matrix.rs"));
        assert!(p.is_test_path("crates/core/tests/actor_parity.rs"));
        assert!(p.is_test_path("crates/bench/benches/gossip.rs"));
        assert!(!p.is_test_path("crates/core/src/tests_helpers.rs"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        assert!(Policy::parse("[nope]\n").unwrap_err().contains("line 1"));
        assert!(Policy::parse("[allow]\nQ9 = [\"x\"]\n").unwrap_err().contains("line 2"));
        assert!(Policy::parse("[chiarolint]\nexclude = [\"a\"\n").unwrap_err().contains("line 2"));
    }
}
