//! File model and workspace driver: lexes each source file, parses
//! `mcs-lint: allow(rule) -- reason` markers out of its comments, maps
//! `#[cfg(test)]` / `#[test]` regions, and runs every rule.
//!
//! # Marker grammar
//!
//! ```text
//! // mcs-lint: allow(<rule>) -- <reason>
//! ```
//!
//! A marker suppresses diagnostics of `<rule>` on its own line and on the
//! line directly below (so it works both trailing and standalone). The
//! `-- <reason>` part is mandatory: a reasonless or unparsable marker is
//! itself reported under the pseudo-rule `marker`, so exemptions cannot
//! silently rot into cargo-cult comments.

use crate::lexer::{lex, Token, TokenKind};
use crate::rules;
use std::path::{Path, PathBuf};

/// Names of the five substantive rules (the `marker` pseudo-rule is not
/// listed — it cannot be allowed away).
pub const RULES: [&str; 5] = [
    "wall-clock",
    "rng-discipline",
    "hash-order",
    "panic-policy",
    "float-reduction",
];

/// One diagnostic: a rule fired at a file/line.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Rule name (one of [`RULES`] or `marker`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A parsed allow-marker.
#[derive(Clone, Debug)]
pub struct Marker {
    /// 1-based line the marker comment starts on.
    pub line: u32,
    /// The rule it exempts.
    pub rule: String,
}

/// A lexed source file plus everything the rules need to know about it.
#[derive(Debug)]
pub struct FileCtx {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Code tokens (comments diverted).
    pub tokens: Vec<Token>,
    /// Well-formed allow-markers.
    pub markers: Vec<Marker>,
    /// Malformed markers, reported as `marker` violations.
    pub bad_markers: Vec<(u32, String)>,
    /// Inclusive line ranges covered by `#[cfg(test)]` / `#[test]` items.
    pub test_ranges: Vec<(u32, u32)>,
}

impl FileCtx {
    /// Lexes `src` (as workspace-relative `path`) into a rule-ready
    /// context.
    pub fn new(path: &str, src: &str) -> Self {
        let lexed = lex(src);
        let mut markers = Vec::new();
        let mut bad_markers = Vec::new();
        for comment in &lexed.comments {
            match parse_marker(&comment.text) {
                MarkerParse::None => {}
                MarkerParse::Ok(rule) => markers.push(Marker {
                    line: comment.line,
                    rule,
                }),
                MarkerParse::Malformed(why) => bad_markers.push((comment.line, why)),
            }
        }
        let test_ranges = test_ranges(&lexed.tokens);
        FileCtx {
            path: path.to_string(),
            tokens: lexed.tokens,
            markers,
            bad_markers,
            test_ranges,
        }
    }

    /// True when `line` is inside a `#[cfg(test)]` / `#[test]` item.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }

    /// True when a marker for `rule` covers `line` (same line or the
    /// line above).
    pub fn allowed(&self, line: u32, rule: &str) -> bool {
        self.markers
            .iter()
            .any(|m| m.rule == rule && (m.line == line || m.line + 1 == line))
    }

    /// True when the file contains `ident` anywhere as a code token.
    pub fn mentions(&self, ident: &str) -> bool {
        self.tokens.iter().any(|t| t.is_ident(ident))
    }
}

enum MarkerParse {
    None,
    Ok(String),
    Malformed(String),
}

/// Parses one comment body for the marker grammar.
fn parse_marker(comment: &str) -> MarkerParse {
    let Some(pos) = comment.find("mcs-lint:") else {
        return MarkerParse::None;
    };
    let rest = comment[pos + "mcs-lint:".len()..].trim_start();
    let Some(args) = rest.strip_prefix("allow(") else {
        return MarkerParse::Malformed(format!(
            "marker must be `mcs-lint: allow(<rule>) -- <reason>`, got `{}`",
            comment.trim()
        ));
    };
    let Some(close) = args.find(')') else {
        return MarkerParse::Malformed("unclosed `allow(` in marker".to_string());
    };
    let rule = args[..close].trim().to_string();
    if !RULES.contains(&rule.as_str()) {
        return MarkerParse::Malformed(format!("unknown rule `{rule}` in marker"));
    }
    let tail = args[close + 1..].trim_start();
    let reason = tail.strip_prefix("--").map(str::trim).unwrap_or("");
    if reason.is_empty() {
        return MarkerParse::Malformed(format!("marker for `{rule}` is missing its `-- <reason>`"));
    }
    MarkerParse::Ok(rule)
}

/// Computes line ranges covered by test-gated items: any attribute whose
/// argument tokens mention `test` (`#[test]`, `#[cfg(test)]`,
/// `#[cfg(all(test, …))]`) extends over the item that follows — up to the
/// matching close of its first `{`, or to a `;` for block-less items.
fn test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            // Find the matching `]` of the attribute.
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut saw_test = false;
            while j < tokens.len() {
                if tokens[j].is_punct('[') {
                    depth += 1;
                } else if tokens[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if tokens[j].is_ident("test") {
                    saw_test = true;
                }
                j += 1;
            }
            if saw_test && j < tokens.len() {
                let start = tokens[i].line;
                // Scan past further attributes / the item signature to its
                // body `{` (brace-matched) or terminating `;`.
                let mut k = j + 1;
                let mut brace = 0usize;
                let mut end = tokens[j].line;
                while k < tokens.len() {
                    let t = &tokens[k];
                    if brace == 0 && t.is_punct(';') {
                        end = t.line;
                        break;
                    }
                    if t.is_punct('{') {
                        brace += 1;
                    } else if t.is_punct('}') {
                        brace -= 1;
                        if brace == 0 {
                            end = t.line;
                            break;
                        }
                    }
                    end = t.line;
                    k += 1;
                }
                ranges.push((start, end));
                i = k + 1;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    ranges
}

/// Per-rule path scoping. Paths are workspace-relative, `/`-separated;
/// "prefix" means string-prefix on that form.
#[derive(Debug)]
pub struct Config {
    /// Files/dirs (prefixes) where wall-clock reads are permitted.
    pub wall_clock_allow: Vec<String>,
    /// Dir prefixes whose non-test library code forbids panicking.
    pub panic_guard: Vec<String>,
}

impl Config {
    /// The workspace policy (see README "Static analysis").
    pub fn workspace_default() -> Self {
        Config {
            wall_clock_allow: vec![
                // The serving layer: deadlines, backoff, elapsed accounting.
                "crates/opt/src/serve.rs".into(),
                // Bench timing (tables record wall-clock by design).
                "crates/bench/".into(),
                // The criterion shim IS a timer.
                "shims/criterion/".into(),
                // Demos may report elapsed time.
                "examples/".into(),
            ],
            panic_guard: vec!["crates/core/src/".into(), "crates/sim/src/".into()],
        }
    }

    fn wall_clock_allowed(&self, path: &str) -> bool {
        self.wall_clock_allow.iter().any(|p| path.starts_with(p))
            || path.contains("/tests/")
            || path.contains("/benches/")
            || path.starts_with("tests/")
            || path.starts_with("benches/")
    }

    fn panic_guarded(&self, path: &str) -> bool {
        self.panic_guard.iter().any(|p| path.starts_with(p)) && !path.contains("/bin/")
    }
}

/// Runs every rule over one file. `path` must be workspace-relative.
pub fn check_file(config: &Config, path: &str, src: &str) -> Vec<Violation> {
    let ctx = FileCtx::new(path, src);
    let mut out = Vec::new();
    for &(line, ref why) in &ctx.bad_markers {
        out.push(Violation {
            file: ctx.path.clone(),
            line,
            rule: "marker",
            message: why.clone(),
        });
    }
    if !config.wall_clock_allowed(path) {
        rules::wall_clock(&ctx, &mut out);
    }
    rules::rng_discipline(&ctx, &mut out);
    rules::hash_order(&ctx, &mut out);
    if config.panic_guarded(path) {
        rules::panic_policy(&ctx, &mut out);
    }
    rules::float_reduction(&ctx, &mut out);
    out.sort();
    out
}

/// Walks the workspace from `root` and checks every tracked `.rs` file.
/// Scanned roots: `src/`, `crates/`, `shims/`, `tests/`, `examples/`,
/// `benches/`. The lint's own crate is skipped — its sources and test
/// fixtures spell out forbidden constructs by name.
pub fn check_workspace(config: &Config, root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    for top in ["src", "crates", "shims", "tests", "examples", "benches"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut out = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        if rel.starts_with("crates/lint/") {
            continue;
        }
        let src = std::fs::read_to_string(&file)?;
        out.extend(check_file(config, &rel, &src));
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Helper shared by rules: index of the matching close for the open
/// delimiter at `open` (any of `(`/`[`/`{` matched against all three
/// closers), or `tokens.len()` when unterminated.
pub(crate) fn matching_close(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return k;
                    }
                }
                _ => {}
            }
        }
    }
    tokens.len()
}
