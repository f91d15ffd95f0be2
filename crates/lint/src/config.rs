//! `lint.toml` — the committed rule configuration.
//!
//! The parser is a deliberately small TOML subset covering exactly what
//! `lint.toml` uses: `[section]` and `[[array-of-tables]]` headers, string
//! values, string arrays and booleans, with `#` comments.  Unknown sections
//! and keys are rejected, so a typoed rule name fails loudly instead of
//! silently disabling a gate.

use std::collections::BTreeMap;

/// Severity of a finding.  `Error` findings fail the run; `Warn` findings
/// are reported but do not affect the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Reported and fails the run.
    Error,
    /// Reported only.
    Warn,
    /// Rule disabled entirely.
    Off,
}

impl Severity {
    /// Parses `"error"`, `"warn"` or `"off"`.
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "error" => Ok(Severity::Error),
            "warn" => Ok(Severity::Warn),
            "off" => Ok(Severity::Off),
            other => Err(format!("unknown severity {other:?} (error|warn|off)")),
        }
    }

    /// The canonical name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
            Severity::Off => "off",
        }
    }
}

/// One committed allowlist entry: findings of `rule` in files whose
/// workspace-relative path contains `path` are suppressed, with the reason
/// recorded in the report.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule name the entry suppresses (e.g. `"determinism"`).
    pub rule: String,
    /// Path substring the entry applies to (workspace-relative).
    pub path: String,
    /// Why the exemption exists — required, so `lint.toml` documents itself.
    pub reason: String,
}

/// The full lint configuration.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Package names whose sources sit on the simulation path and must obey
    /// the determinism / ordering / arena rules.
    pub sim_path: Vec<String>,
    /// The package owning the arena-id newtypes; exempt from the
    /// arena-discipline rule (it implements the discipline).
    pub types_crate: String,
    /// Workspace-relative directory prefixes never linted (external-crate
    /// stand-ins, build output).
    pub skip_dirs: Vec<String>,
    /// Per-rule severities, keyed by rule name.
    pub severity: BTreeMap<String, Severity>,
    /// Hash-container type names whose iteration order is unordered.
    pub map_types: Vec<String>,
    /// Arena-id newtype names covered by the arena-discipline rule.
    pub id_types: Vec<String>,
    /// Committed exemptions.
    pub allow: Vec<AllowEntry>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            sim_path: [
                "misp-types",
                "misp-core",
                "misp-isa",
                "misp-mem",
                "misp-os",
                "shredlib",
                "misp-sim",
                "misp-smp",
                "misp-cache",
                "misp-workloads",
                "misp-trace",
            ]
            .iter()
            .map(ToString::to_string)
            .collect(),
            types_crate: "misp-types".to_string(),
            skip_dirs: vec!["compat".to_string(), "target".to_string()],
            severity: BTreeMap::new(),
            map_types: ["HashMap", "HashSet", "FxHashMap", "FxHashSet"]
                .iter()
                .map(ToString::to_string)
                .collect(),
            id_types: [
                "SequencerId",
                "MispProcessorId",
                "OsThreadId",
                "ShredId",
                "ProcessId",
                "LockId",
            ]
            .iter()
            .map(ToString::to_string)
            .collect(),
            allow: Vec::new(),
        }
    }
}

impl LintConfig {
    /// The severity of `rule` (default `Error`).
    #[must_use]
    pub fn severity_of(&self, rule: &str) -> Severity {
        self.severity.get(rule).copied().unwrap_or(Severity::Error)
    }

    /// Whether package `name` is on the simulation path.
    #[must_use]
    pub fn is_sim_path(&self, name: &str) -> bool {
        self.sim_path.iter().any(|c| c == name)
    }

    /// The allowlist entry covering `(rule, file)`, if any.
    #[must_use]
    pub fn allow_entry(&self, rule: &str, file: &str) -> Option<&AllowEntry> {
        self.allow
            .iter()
            .find(|a| a.rule == rule && file.contains(a.path.as_str()))
    }

    /// Parses a `lint.toml` document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line for syntax errors, unknown
    /// sections/keys, unknown rule names and incomplete `[[allow]]` entries.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut cfg = LintConfig {
            severity: BTreeMap::new(),
            allow: Vec::new(),
            ..LintConfig::default()
        };
        // Section currently open; `[[allow]]` entries accumulate separately.
        let mut section = String::new();
        let mut pending_allow: Option<(Option<String>, Option<String>, Option<String>)> = None;

        fn flush_allow(
            pending: &mut Option<(Option<String>, Option<String>, Option<String>)>,
            out: &mut Vec<AllowEntry>,
        ) -> Result<(), String> {
            if let Some((rule, path, reason)) = pending.take() {
                let rule = rule.ok_or("[[allow]] entry missing `rule`")?;
                let path = path.ok_or("[[allow]] entry missing `path`")?;
                let reason = reason.ok_or_else(|| {
                    format!("[[allow]] entry for {rule}/{path} missing `reason` — exemptions must document themselves")
                })?;
                out.push(AllowEntry { rule, path, reason });
            }
            Ok(())
        }

        let lines: Vec<&str> = text.lines().collect();
        let mut idx = 0;
        while idx < lines.len() {
            let lineno = idx + 1;
            let mut line = strip_comment(lines[idx]).trim().to_string();
            idx += 1;
            if line.is_empty() {
                continue;
            }
            // Multi-line arrays: keep appending lines until brackets balance.
            while bracket_balance(&line) > 0 && idx < lines.len() {
                line.push(' ');
                line.push_str(strip_comment(lines[idx]).trim());
                idx += 1;
            }
            let line = line.as_str();
            if let Some(name) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
                flush_allow(&mut pending_allow, &mut cfg.allow)?;
                if name.trim() != "allow" {
                    return Err(format!("line {lineno}: unknown array section [[{name}]]"));
                }
                section = "allow".to_string();
                pending_allow = Some((None, None, None));
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                flush_allow(&mut pending_allow, &mut cfg.allow)?;
                let name = name.trim();
                match name {
                    "workspace" | "arena" | "unordered" => {}
                    _ if name.starts_with("rules.") => {
                        let rule = &name["rules.".len()..];
                        if !crate::rules::RULE_NAMES.contains(&rule) {
                            return Err(format!(
                                "line {lineno}: unknown rule [rules.{rule}] (rules: {})",
                                crate::rules::RULE_NAMES.join(", ")
                            ));
                        }
                    }
                    _ => return Err(format!("line {lineno}: unknown section [{name}]")),
                }
                section = name.to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "line {lineno}: expected `key = value`, got {line:?}"
                ));
            };
            let key = key.trim();
            let value = value.trim();
            match section.as_str() {
                "workspace" => match key {
                    "sim_path" => cfg.sim_path = parse_string_array(value, lineno)?,
                    "types_crate" => cfg.types_crate = parse_string(value, lineno)?,
                    "skip" => cfg.skip_dirs = parse_string_array(value, lineno)?,
                    _ => return Err(format!("line {lineno}: unknown [workspace] key {key:?}")),
                },
                "arena" => match key {
                    "id_types" => cfg.id_types = parse_string_array(value, lineno)?,
                    _ => return Err(format!("line {lineno}: unknown [arena] key {key:?}")),
                },
                "unordered" => match key {
                    "map_types" => cfg.map_types = parse_string_array(value, lineno)?,
                    _ => return Err(format!("line {lineno}: unknown [unordered] key {key:?}")),
                },
                "allow" => {
                    let entry = pending_allow
                        .as_mut()
                        .expect("inside [[allow]] a pending entry exists");
                    let v = parse_string(value, lineno)?;
                    match key {
                        "rule" => {
                            if !crate::rules::RULE_NAMES.contains(&v.as_str()) {
                                return Err(format!(
                                    "line {lineno}: [[allow]] names unknown rule {v:?}"
                                ));
                            }
                            entry.0 = Some(v);
                        }
                        "path" => entry.1 = Some(v),
                        "reason" => entry.2 = Some(v),
                        _ => return Err(format!("line {lineno}: unknown [[allow]] key {key:?}")),
                    }
                }
                rules if rules.starts_with("rules.") => {
                    let rule = &rules["rules.".len()..];
                    match key {
                        "severity" => {
                            let sev = Severity::parse(&parse_string(value, lineno)?)
                                .map_err(|e| format!("line {lineno}: {e}"))?;
                            cfg.severity.insert(rule.to_string(), sev);
                        }
                        _ => {
                            return Err(format!(
                                "line {lineno}: unknown [rules.{rule}] key {key:?}"
                            ))
                        }
                    }
                }
                "" => return Err(format!("line {lineno}: key {key:?} outside any section")),
                other => return Err(format!("line {lineno}: key in unhandled section {other:?}")),
            }
        }
        flush_allow(&mut pending_allow, &mut cfg.allow)?;
        Ok(cfg)
    }
}

/// Net count of unquoted `[` minus `]` — positive while a multi-line array
/// is still open.
fn bracket_balance(line: &str) -> i32 {
    let b = line.as_bytes();
    let mut balance = 0;
    let mut in_str = false;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'[' if !in_str => balance += 1,
            b']' if !in_str => balance -= 1,
            _ => {}
        }
        i += 1;
    }
    balance
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let b = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

fn parse_string(value: &str, lineno: usize) -> Result<String, String> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].replace("\\\"", "\""))
    } else {
        Err(format!(
            "line {lineno}: expected a quoted string, got {v:?}"
        ))
    }
}

fn parse_string_array(value: &str, lineno: usize) -> Result<Vec<String>, String> {
    let v = value.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("line {lineno}: expected [\"…\", …], got {v:?}"))?;
    let mut out = Vec::new();
    for part in split_top_level(inner) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_string(part, lineno)?);
    }
    Ok(out)
}

/// Splits on commas outside quotes.
fn split_top_level(s: &str) -> Vec<&str> {
    let b = s.as_bytes();
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b',' if !in_str => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    parts.push(&s[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_document() {
        let toml = r#"
            # comment
            [workspace]
            sim_path = ["misp-sim", "misp-core"]  # trailing comment
            types_crate = "misp-types"
            skip = ["compat"]

            [rules.determinism]
            severity = "error"

            [rules.unordered-iteration]
            severity = "warn"

            [arena]
            id_types = ["SequencerId"]

            [[allow]]
            rule = "determinism"
            path = "crates/harness/src/bin/sweep.rs"
            reason = "wall-clock phase timers"
        "#;
        let cfg = LintConfig::parse(toml).unwrap();
        assert_eq!(cfg.sim_path, vec!["misp-sim", "misp-core"]);
        assert_eq!(cfg.severity_of("determinism"), Severity::Error);
        assert_eq!(cfg.severity_of("unordered-iteration"), Severity::Warn);
        assert_eq!(cfg.severity_of("no-alloc"), Severity::Error, "default");
        assert_eq!(cfg.id_types, vec!["SequencerId"]);
        assert_eq!(cfg.allow.len(), 1);
        assert!(cfg
            .allow_entry("determinism", "crates/harness/src/bin/sweep.rs")
            .is_some());
        assert!(cfg
            .allow_entry("determinism", "crates/sim/src/lib.rs")
            .is_none());
        assert!(cfg
            .allow_entry("no-alloc", "crates/harness/src/bin/sweep.rs")
            .is_none());
    }

    #[test]
    fn unknown_rule_section_is_rejected() {
        let err = LintConfig::parse("[rules.no-such-rule]\nseverity = \"warn\"\n").unwrap_err();
        assert!(err.contains("unknown rule"), "{err}");
    }

    #[test]
    fn unknown_key_is_rejected() {
        let err = LintConfig::parse("[workspace]\nfrobnicate = \"x\"\n").unwrap_err();
        assert!(err.contains("unknown [workspace] key"), "{err}");
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let toml = "[[allow]]\nrule = \"determinism\"\npath = \"x.rs\"\n";
        let err = LintConfig::parse(toml).unwrap_err();
        assert!(err.contains("missing `reason`"), "{err}");
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let toml = "[[allow]]\nrule = \"determinism\"\npath = \"a#b.rs\"\nreason = \"r # r\"\n";
        let cfg = LintConfig::parse(toml).unwrap();
        assert_eq!(cfg.allow[0].path, "a#b.rs");
        assert_eq!(cfg.allow[0].reason, "r # r");
    }
}
