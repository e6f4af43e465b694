//! `cargo xtask lint` — the workspace static-analysis suite.
//!
//! Six project-specific passes, all running on the shared
//! [`lexer`](crate::lexer) (pure text analysis, no build, well under a
//! second for the whole workspace):
//!
//! * [`atomics`] — the atomics-protocol conformance pass: every
//!   `Ordering::*` call site must live in the sync layer or be manifested
//!   in `lint/atomics.toml`; non-Relaxed sites need a machine-readable
//!   `// pairs-with: <group>` annotation and every group must be
//!   symmetric (an acquire side and a release side); `SeqCst` is banned
//!   everywhere.
//! * [`hot_paths`] — allocation freedom on the descent paths named in
//!   `lint/hot_paths.toml` (allocating constructs are denied, with a
//!   per-function allowlist for documented cold setup edges).
//! * [`epoch`] — epoch-pin discipline in `hot-core`: a function that
//!   dereferences an epoch-protected pointer must take a `&Guard`, pin
//!   itself, or carry an `// epoch-exempt:` justification.
//! * [`budget`] — the per-crate `unsafe` site budget pinned in
//!   `lint/unsafe_budget.toml`: new unsafe must be consciously budgeted.
//! * [`safety`] — every `unsafe` site carries a written justification
//!   (`// SAFETY:`, or a `# Safety` doc section on an `unsafe fn`).
//! * [`claims`] — every verdict row of EXPERIMENTS.md carries evidence
//!   that resolves (a test, a result line, a `BENCHMARK.json` name, a
//!   heading or a change-log entry), its summary line matches the table's
//!   counts, and every citation of a DESIGN.md section or an
//!   EXPERIMENTS.md heading names one that exists.
//!
//! Diagnostics print as `file:line: [pass] message` (the format the CI
//! problem matcher consumes); `--json` emits the same findings as a
//! machine-readable object, with the workspace's unsafe site count and how
//! many of them are unjustified.
//!
//! `third_party/` is deliberately **outside** the first three passes: it
//! is vendored stand-in code (the loom shim runs everything at `SeqCst`
//! internally by design). The last two passes walk it — the vendored
//! crates' unsafe surface is part of the build, so it is counted and held
//! to the same justification bar as workspace code. One exception: the
//! epoch collector (`third_party/crossbeam-epoch`) *is* scanned by the
//! first three — it is lock-free code whose orderings the ROWEX
//! protocol's reclamation argument rests on, so the atomics pass holds it
//! to the manifest and `pairs-with:` rules like workspace code.

pub mod atomics;
pub mod budget;
pub mod claims;
pub mod epoch;
pub mod hot_paths;
pub mod safety;

use crate::lexer::LexedFile;
use std::path::Path;
use std::process::ExitCode;

/// One lint finding.
pub struct Diag {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line number (0 for file/manifest-level findings).
    pub line: usize,
    /// Which pass produced it.
    pub pass: &'static str,
    /// What went wrong and how to fix it.
    pub msg: String,
}

impl Diag {
    fn render(&self) -> String {
        format!("{}:{}: [{}] {}", self.file, self.line, self.pass, self.msg)
    }
}

/// One scanned workspace source file.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// The lexed file with its structural passes.
    pub file: LexedFile,
    /// Whether the file lives under a `tests/`, `benches/` or `examples/`
    /// directory (held to a looser bar than library code).
    pub is_test_context: bool,
}

impl SourceFile {
    /// Whether `line` (0-based) is test scaffolding — either the whole
    /// file is test context or the line sits in a `#[cfg(test)] mod`.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.is_test_context || self.file.in_test.get(line).copied().unwrap_or(false)
    }
}

/// `path` relative to the workspace root, with forward slashes.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path).components();
    rel.map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Load and lex the lintable workspace sources: everything under
/// `crates/` plus the umbrella crate's root `src/`, `tests/` and
/// `examples/`, and of `third_party/` only the epoch collector (see
/// module docs).
pub fn load_sources(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut paths = Vec::new();
    for top in [
        "crates",
        "src",
        "tests",
        "examples",
        "third_party/crossbeam-epoch",
    ] {
        crate::lexer::collect_rs(&root.join(top), &mut paths);
    }
    paths.sort();
    let mut out = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let rel = rel_path(root, &path);
        let is_test_context = rel
            .split('/')
            .any(|seg| matches!(seg, "tests" | "benches" | "examples"));
        out.push(SourceFile {
            rel,
            file: LexedFile::new(&text),
            is_test_context,
        });
    }
    Ok(out)
}

/// Read one manifest under `lint/`, tolerating a missing file only when
/// `required` is false.
fn load_manifest(root: &Path, name: &str) -> Result<Vec<crate::toml::Table>, String> {
    let path = root.join("lint").join(name);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("lint/{name}: cannot read: {e}"))?;
    crate::toml::parse(&text).map_err(|e| format!("lint/{name}: {e}"))
}

/// Run all six passes over the workspace; returns the findings and the
/// workspace's `unsafe` site count, justified or not.
pub fn run_all(root: &Path) -> Result<(Vec<Diag>, usize), String> {
    let sources = load_sources(root)?;
    let mut diags = Vec::new();

    let atomics_manifest = load_manifest(root, "atomics.toml")?;
    atomics::run(&sources, &atomics_manifest, &mut diags)?;

    let hot_manifest = load_manifest(root, "hot_paths.toml")?;
    hot_paths::run(&sources, &hot_manifest, &mut diags)?;

    epoch::run(&sources, &mut diags);

    let budget_manifest = load_manifest(root, "unsafe_budget.toml")?;
    let unsafe_sites = budget::run(root, &budget_manifest, &mut diags)?;

    claims::run(&claims::load(root), &mut diags);

    // Stable presentation order: by file, then line, then pass.
    diags.sort_by(|a, b| (a.file.as_str(), a.line, a.pass).cmp(&(b.file.as_str(), b.line, b.pass)));
    Ok((diags, unsafe_sites))
}

/// The `cargo xtask lint [--json]` entry point.
pub fn lint(json: bool) -> ExitCode {
    let root = crate::workspace_root();
    let (diags, unsafe_sites) = match run_all(&root) {
        Ok(report) => report,
        Err(e) => {
            // Infrastructure errors (unreadable file, malformed manifest)
            // fail the run with a single synthetic finding so CI still
            // gets the machine-readable shape.
            if json {
                println!(
                    "{{\"findings\": [{{\"file\": \"{}\", \"line\": 0, \"pass\": \"driver\", \"message\": \"{}\"}}], \"count\": 1}}",
                    escape("lint"),
                    escape(&e)
                );
            } else {
                eprintln!("lint: {e}");
            }
            return ExitCode::FAILURE;
        }
    };
    if json {
        let mut out = String::from("{\"findings\": [");
        for (i, d) in diags.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"file\": \"{}\", \"line\": {}, \"pass\": \"{}\", \"message\": \"{}\"}}",
                escape(&d.file),
                d.line,
                d.pass,
                escape(&d.msg)
            ));
        }
        let unjustified = diags.iter().filter(|d| d.pass == safety::PASS).count();
        out.push_str(&format!(
            "], \"count\": {}, \"unsafe_sites\": {unsafe_sites}, \"unjustified\": {unjustified}}}",
            diags.len()
        ));
        println!("{out}");
    }
    if diags.is_empty() {
        if !json {
            println!(
                "lint: all six passes clean (atomics, hot-path, epoch, unsafe-budget, safety, claims); \
                 {unsafe_sites} unsafe sites, all justified"
            );
        }
        ExitCode::SUCCESS
    } else {
        for d in &diags {
            eprintln!("{}", d.render());
        }
        eprintln!("\nlint: {} finding(s). See DESIGN.md §15 for the protocol rules, the manifest formats and the annotation grammar.", diags.len());
        ExitCode::FAILURE
    }
}

/// Escape a string for embedding in the `--json` report.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a single-file fixture workspace source in-memory.
    pub(crate) fn fixture(rel: &str, src: &str) -> SourceFile {
        SourceFile {
            rel: rel.to_string(),
            file: LexedFile::new(src),
            is_test_context: false,
        }
    }

    #[test]
    fn diags_render_in_problem_matcher_shape() {
        let d = Diag {
            file: "crates/hot-core/src/sync.rs".into(),
            line: 42,
            pass: "atomics",
            msg: "naked SeqCst".into(),
        };
        assert_eq!(
            d.render(),
            "crates/hot-core/src/sync.rs:42: [atomics] naked SeqCst"
        );
    }

    #[test]
    fn the_workspace_itself_lints_clean() {
        // The clean-workspace smoke: the real tree, all six passes.
        let root = crate::workspace_root();
        let (diags, _) = run_all(&root).expect("lint infrastructure runs");
        let rendered: Vec<String> = diags.iter().map(Diag::render).collect();
        assert!(
            rendered.is_empty(),
            "workspace has lint findings:\n{}",
            rendered.join("\n")
        );
    }
}
