//! Per-crate `unsafe` budget.
//!
//! The [`super::safety`] pass proves every `unsafe` site carries a
//! written justification; this pass adds the *quantity* dimension: the
//! checked-in `lint/unsafe_budget.toml` pins how many sites each crate is
//! allowed to hold (`[[budget]] crate = "hot-core", sites = N`). A new
//! `unsafe` block no longer slips in on the back of a plausible SAFETY
//! comment — the author must also bump the budget in the same diff, which
//! makes the growth visible in review.
//!
//! Counts cover a crate's whole tree (src, tests, benches, examples) and
//! include the vendored `third_party/` crates — their unsafe surface is
//! part of the build. Mismatches fail in either direction: a count above
//! budget is unbudgeted growth, a count below is a stale manifest that
//! would mask the next growth.
//!
//! The walk that counts is the `safety` pass's walk too: each file is
//! lexed once, and [`safety::scan`] both reports its unjustified sites and
//! returns its site count.

use super::{safety, Diag};
use std::path::Path;

const PASS: &str = "unsafe-budget";

/// Count `unsafe` sites per crate, pushing the `safety` findings of every
/// file on the way. The crate key is the directory name under `crates/` or
/// `third_party/`; the umbrella crate's root `src`/`tests`/`examples`
/// count as `hot`.
fn count_by_crate(root: &Path, diags: &mut Vec<Diag>) -> Result<Vec<(String, usize)>, String> {
    let mut files = Vec::new();
    for top in ["crates", "third_party", "tests", "examples", "src"] {
        crate::lexer::collect_rs(&root.join(top), &mut files);
    }
    files.sort();
    let mut counts: Vec<(String, usize)> = Vec::new();
    for file in &files {
        let rel = super::rel_path(root, file);
        let mut parts = rel.split('/');
        let key = match parts.next() {
            Some("crates" | "third_party") => parts.next().unwrap_or_default().to_string(),
            _ => "hot".to_string(), // umbrella crate at the workspace root
        };
        let text = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let n = safety::scan(&rel, &text, diags);
        match counts.iter_mut().find(|(k, _)| *k == key) {
            Some((_, total)) => *total += n,
            None => counts.push((key, n)),
        }
    }
    Ok(counts)
}

/// Run this pass and the `safety` pass; returns the workspace's unsafe
/// site count.
pub fn run(root: &Path, manifest: &[crate::toml::Table], diags: &mut Vec<Diag>) -> Result<usize, String> {
    let mut budgets = Vec::new();
    for table in manifest {
        if table.name != "budget" {
            return Err(format!(
                "lint/unsafe_budget.toml: unknown table [[{}]] at line {} (only [[budget]])",
                table.name, table.line
            ));
        }
        budgets.push((
            table.str_field("crate")?.to_string(),
            table.int_field("sites")?,
            table.line,
        ));
    }
    let counts = count_by_crate(root, diags)?;
    check(&counts, &budgets, diags);
    Ok(counts.iter().map(|(_, n)| n).sum())
}

/// Compare actual per-crate counts against the budget table.
fn check(counts: &[(String, usize)], budgets: &[(String, i64, usize)], diags: &mut Vec<Diag>) {
    for (krate, actual) in counts {
        let budget = budgets.iter().find(|(k, _, _)| k == krate);
        match budget {
            Some((_, sites, line)) if *sites != *actual as i64 => diags.push(Diag {
                file: "lint/unsafe_budget.toml".into(),
                line: *line,
                pass: PASS,
                msg: format!(
                    "crate `{krate}`: budget says {sites} unsafe site(s), found {actual} — \
                     unsafe growth must be budgeted consciously (adjust the manifest in the \
                     same change, with review)"
                ),
            }),
            Some(_) => {}
            None if *actual > 0 => diags.push(Diag {
                file: "lint/unsafe_budget.toml".into(),
                line: 0,
                pass: PASS,
                msg: format!(
                    "crate `{krate}` holds {actual} unsafe site(s) but has no [[budget]] entry"
                ),
            }),
            None => {}
        }
    }
    for (krate, _, line) in budgets {
        if !counts.iter().any(|(k, _)| k == krate) {
            diags.push(Diag {
                file: "lint/unsafe_budget.toml".into(),
                line: *line,
                pass: PASS,
                msg: format!("[[budget]] names unknown crate `{krate}` — stale manifest entry"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rendered(counts: &[(&str, usize)], manifest: &str) -> Vec<String> {
        let tables = crate::toml::parse(manifest).expect("manifest parses");
        let mut budgets = Vec::new();
        for t in &tables {
            budgets.push((
                t.str_field("crate").unwrap().to_string(),
                t.int_field("sites").unwrap(),
                t.line,
            ));
        }
        let counts: Vec<(String, usize)> =
            counts.iter().map(|(k, n)| (k.to_string(), *n)).collect();
        let mut diags = Vec::new();
        check(&counts, &budgets, &mut diags);
        diags.iter().map(|d| d.render()).collect()
    }

    #[test]
    fn seeded_overspend_is_flagged() {
        let diags = rendered(
            &[("hot-core", 99)],
            "[[budget]]\ncrate = \"hot-core\"\nsites = 98\n",
        );
        assert_eq!(diags.len(), 1);
        assert!(
            diags[0].contains("budget says 98 unsafe site(s), found 99"),
            "unexpected: {}",
            diags[0]
        );
    }

    #[test]
    fn unbudgeted_and_stale_crates_are_flagged() {
        let diags = rendered(
            &[("hot-core", 5)],
            "[[budget]]\ncrate = \"gone-crate\"\nsites = 1\n",
        );
        assert_eq!(diags.len(), 2, "got: {diags:?}");
        assert!(diags.iter().any(|d| d.contains("has no [[budget]] entry")));
        assert!(diags.iter().any(|d| d.contains("unknown crate `gone-crate`")));
    }

    #[test]
    fn exact_match_and_zero_unsafe_crates_pass() {
        let diags = rendered(
            &[("hot-core", 98), ("hot-keys", 0)],
            "[[budget]]\ncrate = \"hot-core\"\nsites = 98\n",
        );
        assert!(diags.is_empty(), "got: {diags:?}");
    }
}
