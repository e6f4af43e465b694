//! Every claim has one checked source.
//!
//! Two checks over the documents, both pure text:
//!
//! * **The verdict table.** Each row of EXPERIMENTS.md's `## Verdict
//!   table` reads `| group | claim | status | evidence |`. The group is
//!   `paper`, `beyond-paper` or `design`; the status starts with ✓, ≈, ✗
//!   or `untestable`; the evidence cell holds one or more code spans, each
//!   one of
//!   - `test:<package>::<fn>` — a `#[test] fn <fn>` in that package's
//!     `src/` or `tests/`, found with the shared [`lexer`](crate::lexer),
//!     so a name in a comment or a string does not count;
//!   - `result:<file>:<needle>` — the needle appears in that file, each
//!     run of whitespace matching any run of whitespace (a tab-separated
//!     result line is quoted with spaces);
//!   - `bench:<name>` — `BENCHMARK.json` holds `"name": "<name>"`;
//!   - `section:<prefix>` — an EXPERIMENTS.md heading starts with it;
//!   - `changes:PR <n>` — a line of CHANGES.md starts with `PR <n>:`.
//!
//!   The `**Summary:**` line must read exactly as [`summary`] renders the
//!   table's per-group counts, so the counts are never kept by hand.
//! * **Citations.** In every `.md`, `.rs`, `.toml` and `.yml` file, a
//!   `DESIGN.md` citation of a section (`§` and a number) must name a
//!   numbered DESIGN.md heading, and an `EXPERIMENTS.md` citation followed
//!   by a quoted heading prefix (the quote may wrap across lines, comment
//!   markers and all) must start an EXPERIMENTS.md heading. Root-level
//!   Markdown other than DESIGN.md, EXPERIMENTS.md and README.md is
//!   history or reference (the change log, the roadmap, paper notes) and
//!   is not checked; neither are `#[cfg(test)]` modules, whose fixtures
//!   cite dangling sections on purpose.

use super::Diag;
use crate::lexer::LexedFile;
use std::collections::BTreeMap;
use std::path::Path;

/// The pass name diagnostics carry.
pub const PASS: &str = "claims";

/// The workspace's text files, by workspace-relative path.
pub type Tree = BTreeMap<String, String>;

const DESIGN: &str = "DESIGN.md";
const EXPERIMENTS: &str = "EXPERIMENTS.md";
const VERDICT_HEADING: &str = "## Verdict table";
const SUMMARY: &str = "**Summary:**";
const GROUPS: [&str; 3] = ["paper", "beyond-paper", "design"];
const STATUSES: [&str; 4] = ["✓", "≈", "✗", "untestable"];

/// Read every UTF-8 file under `root` (outside `target/` and `.git/`).
pub fn load(root: &Path) -> Tree {
    let mut paths = Vec::new();
    crate::lexer::collect(root, &|_| true, &mut paths);
    paths
        .into_iter()
        .filter_map(|path| {
            let text = std::fs::read_to_string(&path).ok()?;
            Some((super::rel_path(root, &path), text))
        })
        .collect()
}

/// Run both checks over `tree`.
pub fn run(tree: &Tree, diags: &mut Vec<Diag>) {
    let headings_of = |rel| tree.get(rel).map_or(Vec::new(), |t| headings(t));
    let sections: Vec<String> = headings_of(DESIGN)
        .iter()
        .filter_map(|h| section_number(h))
        .collect();
    let experiments = headings_of(EXPERIMENTS);
    verdicts(tree, &experiments, diags);
    for (rel, text) in tree {
        if cites_are_checked(rel) && (text.contains(DESIGN) || text.contains(EXPERIMENTS)) {
            citations(rel, text, &sections, &experiments, diags);
        }
    }
}

fn diag(file: &str, line: usize, msg: String) -> Diag {
    Diag {
        file: file.to_string(),
        line,
        pass: PASS,
        msg,
    }
}

/// The text of each Markdown heading (after its `#`s), skipping fenced
/// code blocks.
fn headings(text: &str) -> Vec<String> {
    let mut fenced = false;
    let mut out = Vec::new();
    for line in text.lines() {
        if line.starts_with("```") {
            fenced = !fenced;
        } else if !fenced && line.starts_with('#') {
            let body = line.trim_start_matches('#');
            if let Some(title) = body.strip_prefix(' ') {
                out.push(title.trim().to_string());
            }
        }
    }
    out
}

/// `"3.6"` for a heading `3.6 Optimizations` or `3. Core design`.
fn section_number(heading: &str) -> Option<String> {
    let number = heading.split(' ').next()?.trim_end_matches('.');
    let numeric = !number.is_empty()
        && number
            .split('.')
            .all(|part| !part.is_empty() && part.bytes().all(|b| b.is_ascii_digit()));
    numeric.then(|| number.to_string())
}

/// Check the verdict table and its summary line.
fn verdicts(tree: &Tree, experiments: &[String], diags: &mut Vec<Diag>) {
    let Some(text) = tree.get(EXPERIMENTS) else {
        diags.push(diag(EXPERIMENTS, 0, "file not found".into()));
        return;
    };
    let lines: Vec<&str> = text.lines().collect();
    let Some(start) = lines.iter().position(|l| l.trim_end() == VERDICT_HEADING) else {
        diags.push(diag(EXPERIMENTS, 0, format!("no `{VERDICT_HEADING}`")));
        return;
    };
    // counts[group][status]
    let mut counts = [[0usize; 4]; 3];
    let table = lines
        .iter()
        .enumerate()
        .skip(start + 1)
        .skip_while(|(_, l)| !l.starts_with('|'))
        .take_while(|(_, l)| l.starts_with('|'))
        .skip(2); // the header row and the `|---|` rule
    for (idx, row) in table {
        let line = idx + 1;
        let cells = cells(row);
        let [group, _claim, status, evidence] = cells.as_slice() else {
            diags.push(diag(
                EXPERIMENTS,
                line,
                format!(
                    "verdict row has {} cells; expected `| group | claim | status | evidence |`",
                    cells.len()
                ),
            ));
            continue;
        };
        let Some(g) = GROUPS.iter().position(|g| g == group) else {
            diags.push(diag(
                EXPERIMENTS,
                line,
                format!("unknown group `{group}` (paper, beyond-paper, design)"),
            ));
            continue;
        };
        let Some(s) = STATUSES.iter().position(|s| status.starts_with(s)) else {
            diags.push(diag(
                EXPERIMENTS,
                line,
                "status must start with ✓, ≈, ✗ or `untestable`".into(),
            ));
            continue;
        };
        counts[g][s] += 1;
        let spans = code_spans(evidence);
        if spans.is_empty() {
            diags.push(diag(
                EXPERIMENTS,
                line,
                "verdict row carries no evidence".into(),
            ));
        }
        for span in spans {
            if let Err(why) = evidence_holds(tree, experiments, span) {
                diags.push(diag(EXPERIMENTS, line, format!("`{span}`: {why}")));
            }
        }
    }
    let expected = summary(&counts);
    match lines.iter().position(|l| l.starts_with(SUMMARY)) {
        Some(idx) if lines[idx].trim_end() == expected => {}
        Some(idx) => diags.push(diag(
            EXPERIMENTS,
            idx + 1,
            format!("the summary disagrees with the verdict table, which counts: {expected}"),
        )),
        None => diags.push(diag(
            EXPERIMENTS,
            start + 1,
            format!("no `{SUMMARY}` line; the verdict table counts: {expected}"),
        )),
    }
}

/// The one summary sentence the verdict table's counts allow.
pub fn summary(counts: &[[usize; 4]; 3]) -> String {
    let tally = |c: &[usize; 4]| {
        format!(
            "{} ✓, {} ≈, {} ✗, {} untestable of {}",
            c[0],
            c[1],
            c[2],
            c[3],
            c.iter().sum::<usize>()
        )
    };
    let mut total = [0usize; 4];
    for group in counts {
        for (t, c) in total.iter_mut().zip(group) {
            *t += c;
        }
    }
    format!(
        "{SUMMARY} {} verdict rows. Paper: {}. Beyond-paper: {}. Design: {}.",
        tally(&total),
        tally(&counts[0]),
        tally(&counts[1]),
        tally(&counts[2])
    )
}

/// A table row's cells, trimmed; a `|` inside a code span does not split.
fn cells(row: &str) -> Vec<&str> {
    let inner = row.trim().trim_start_matches('|');
    let inner = inner.strip_suffix('|').unwrap_or(inner);
    let mut out = Vec::new();
    let (mut start, mut in_code) = (0, false);
    for (i, b) in inner.bytes().enumerate() {
        match b {
            b'`' => in_code = !in_code,
            b'|' if !in_code => {
                out.push(inner[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(inner[start..].trim());
    out
}

/// The contents of each `` `…` `` span in `text`.
fn code_spans(text: &str) -> Vec<&str> {
    text.split('`').skip(1).step_by(2).collect()
}

/// Whether one piece of evidence resolves; the error says why not.
fn evidence_holds(tree: &Tree, experiments: &[String], evidence: &str) -> Result<(), String> {
    let file = |rel: &str| tree.get(rel).ok_or_else(|| format!("no file {rel}"));
    match evidence.split_once(':') {
        Some(("test", target)) => {
            let (package, name) = target
                .split_once("::")
                .ok_or("expected `test:<package>::<fn>`")?;
            let dir = package_dir(tree, package).ok_or(format!("no package `{package}`"))?;
            let found = tree.iter().any(|(rel, text)| {
                let in_package = [format!("{dir}src/"), format!("{dir}tests/")]
                    .iter()
                    .any(|prefix| rel.starts_with(prefix.as_str()));
                in_package && rel.ends_with(".rs") && defines_test(text, name)
            });
            if found {
                Ok(())
            } else {
                Err(format!(
                    "no `#[test] fn {name}` in {package}'s src/ or tests/"
                ))
            }
        }
        Some(("result", target)) => {
            let (rel, needle) = target
                .split_once(':')
                .ok_or("expected `result:<file>:<needle>`")?;
            let words = |s: &str| s.split_whitespace().collect::<Vec<_>>().join(" ");
            if words(file(rel)?).contains(&words(needle)) {
                Ok(())
            } else {
                Err(format!("the needle is not in {rel}"))
            }
        }
        Some(("bench", name)) => {
            if file("BENCHMARK.json")?.contains(&format!("\"name\": \"{name}\"")) {
                Ok(())
            } else {
                Err(format!("BENCHMARK.json names no `{name}`"))
            }
        }
        Some(("section", prefix)) => {
            if experiments.iter().any(|h| h.starts_with(prefix)) {
                Ok(())
            } else {
                Err(format!("no {EXPERIMENTS} heading starts with `{prefix}`"))
            }
        }
        Some(("changes", entry)) => {
            let head = format!("{entry}:");
            let pr = entry
                .strip_prefix("PR ")
                .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()));
            if pr && file("CHANGES.md")?.lines().any(|l| l.starts_with(&head)) {
                Ok(())
            } else {
                Err(format!("CHANGES.md has no `{head}` entry"))
            }
        }
        _ => Err("unknown evidence kind (test, result, bench, section, changes)".into()),
    }
}

/// The directory (with a trailing `/`, empty at the root) of the package
/// whose `Cargo.toml` says `[package] name = "<package>"`.
fn package_dir<'t>(tree: &'t Tree, package: &str) -> Option<&'t str> {
    let wanted = format!("name = \"{package}\"");
    tree.iter().find_map(|(rel, text)| {
        let dir = rel.strip_suffix("Cargo.toml")?;
        if !(dir.is_empty() || dir.ends_with('/')) {
            return None;
        }
        let mut in_package = false;
        for line in text.lines().map(str::trim) {
            if line.starts_with('[') {
                in_package = line == "[package]";
            } else if in_package && line == wanted {
                return Some(dir);
            }
        }
        None
    })
}

/// Whether the Rust source `text` has a `#[test]` attribute on a `fn name`.
fn defines_test(text: &str, name: &str) -> bool {
    if !text.contains(name) {
        return false;
    }
    let file = LexedFile::new(text);
    file.lines
        .iter()
        .enumerate()
        .filter(|(_, line)| line.code.contains("#[test]"))
        .filter_map(|(at, _)| {
            // The attribute belongs to the first fn declared at or after it.
            file.fns
                .iter()
                .filter(|f| f.sig_start >= at)
                .min_by_key(|f| f.sig_start)
        })
        .any(|f| f.name == name)
}

/// Whether citations in `rel` are checked (see the module docs).
fn cites_are_checked(rel: &str) -> bool {
    let Some((_, ext)) = rel.rsplit_once('.') else {
        return false;
    };
    match ext {
        "md" => rel.contains('/') || [DESIGN, EXPERIMENTS, "README.md"].contains(&rel),
        "rs" | "toml" | "yml" => true,
        _ => false,
    }
}

/// Check every DESIGN.md section and EXPERIMENTS.md heading citation in
/// one file.
fn citations(
    rel: &str,
    text: &str,
    sections: &[String],
    experiments: &[String],
    diags: &mut Vec<Diag>,
) {
    let in_test = rel.ends_with(".rs").then(|| LexedFile::new(text).in_test);
    // The file with comment markers stripped from each line's start, so a
    // citation that wraps reads as one run of text; `starts[i]` is the
    // byte offset of line `i`.
    let mut flat = String::with_capacity(text.len());
    let mut starts = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        starts.push(flat.len());
        if in_test
            .as_ref()
            .is_some_and(|t| t.get(idx).copied().unwrap_or(false))
        {
            flat.push('\n');
            continue;
        }
        let line = line.trim_start();
        let line = match rel.rsplit_once('.').map(|(_, ext)| ext) {
            Some("rs") => ["//!", "///", "//"]
                .iter()
                .find_map(|m| line.strip_prefix(m))
                .unwrap_or(line),
            Some("toml" | "yml") => line.strip_prefix('#').unwrap_or(line),
            _ => line,
        };
        flat.push_str(line);
        flat.push('\n');
    }
    let line_of = |offset: usize| starts.partition_point(|&s| s <= offset);

    for (at, _) in flat.match_indices(DESIGN) {
        let rest = flat[at + DESIGN.len()..].trim_start();
        let Some(rest) = rest.strip_prefix('§') else {
            continue;
        };
        // Digits and inner dots: `§3.6.` ends a sentence at `3.6`.
        let mut end = 0;
        let bytes = rest.as_bytes();
        while end < bytes.len()
            && (bytes[end].is_ascii_digit()
                || (bytes[end] == b'.' && bytes.get(end + 1).is_some_and(u8::is_ascii_digit)))
        {
            end += 1;
        }
        let number = &rest[..end];
        if !number.is_empty() && !sections.iter().any(|s| s == number) {
            diags.push(diag(
                rel,
                line_of(at),
                format!("`{DESIGN} §{number}` names no {DESIGN} heading"),
            ));
        }
    }
    for (at, _) in flat.match_indices(EXPERIMENTS) {
        let rest = &flat[at + EXPERIMENTS.len()..];
        if rest.starts_with('"') {
            continue; // the name itself in quotes, not a citation
        }
        let rest = rest
            .trim_start()
            .strip_prefix([',', '('])
            .unwrap_or(rest)
            .trim_start();
        let Some(quote) = rest.strip_prefix('"').and_then(|r| r.split_once('"')) else {
            continue;
        };
        let prefix = quote.0.split_whitespace().collect::<Vec<_>>().join(" ");
        if !experiments.iter().any(|h| h.starts_with(&prefix)) {
            diags.push(diag(
                rel,
                line_of(at),
                format!("`{EXPERIMENTS} \"{prefix}\"` starts no {EXPERIMENTS} heading"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE_HEAD: &str =
        "## Verdict table\n\n| group | claim | status | evidence |\n|---|---|---|---|\n";

    /// A minimal consistent tree: one row per evidence kind, every one of
    /// which resolves, and the summary that counts them.
    fn clean_tree() -> Tree {
        let rows = "\
| paper | a test exists | ✓ | `test:demo::it_holds` |
| paper | a figure is recorded | ≈ (close) | `result:results/fig8.txt:C url HOT 0.746` |
| beyond-paper | a metric is gated | ✓ | `bench:throughput_mops` |
| design | a section holds the runs | ✗ as claimed | `section:Figure 8` |
| design | a change log entry | untestable here | `changes:PR 7` |
";
        let counts = [[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1]];
        let experiments = format!(
            "# EXPERIMENTS\n\n{}\n\n## Figure 8 (Section 6.2) — throughput\n\n```\n# not a heading\n```\n\n{TABLE_HEAD}{rows}",
            summary(&counts)
        );
        let mut tree = Tree::new();
        for (rel, text) in [
            ("EXPERIMENTS.md", experiments.as_str()),
            (
                "DESIGN.md",
                "# DESIGN\n\n## 3. Core\n\n### 3.6 Optimizations (Section 4.5)\n",
            ),
            ("CHANGES.md", "PR 7: the lint suite.\n"),
            (
                "BENCHMARK.json",
                "{\"end_to_end\": [{\"name\": \"throughput_mops\"}]}\n",
            ),
            (
                "results/fig8.txt",
                "workload\tdataset\tstructure\tmops\nC\turl\tHOT\t0.746\n",
            ),
            (
                "crates/demo/Cargo.toml",
                "[package]\nname = \"demo\"\n\n[[bin]]\nname = \"other\"\n",
            ),
            (
                "crates/demo/tests/t.rs",
                "#[test]\n#[ignore]\nfn it_holds() {}\n",
            ),
        ] {
            tree.insert(rel.to_string(), text.to_string());
        }
        tree
    }

    fn findings(tree: &Tree) -> Vec<String> {
        let mut diags = Vec::new();
        run(tree, &mut diags);
        diags.iter().map(Diag::render).collect()
    }

    /// Replace `from` by `to` in one file of the clean tree, then lint it.
    fn mutated(rel: &str, from: &str, to: &str) -> Vec<String> {
        let mut tree = clean_tree();
        let text = tree.get_mut(rel).unwrap();
        assert!(text.contains(from), "fixture lacks {from:?}");
        *text = text.replace(from, to);
        findings(&tree)
    }

    /// The 1-based line of the first `needle` in the clean EXPERIMENTS.md.
    fn line_of(needle: &str) -> usize {
        let tree = clean_tree();
        tree["EXPERIMENTS.md"]
            .lines()
            .position(|l| l.contains(needle))
            .unwrap()
            + 1
    }

    #[test]
    fn the_clean_fixture_has_no_findings() {
        assert_eq!(findings(&clean_tree()), Vec::<String>::new());
    }

    #[test]
    fn a_renamed_test_is_flagged() {
        let line = line_of("test:demo");
        assert_eq!(
            mutated("crates/demo/tests/t.rs", "it_holds", "it_still_holds"),
            [format!(
                "EXPERIMENTS.md:{line}: [claims] `test:demo::it_holds`: no `#[test] fn it_holds` in demo's src/ or tests/"
            )]
        );
        // A name that is only in a comment, or not under a `#[test]`, is no test.
        let commented = "// #[test] fn it_holds() {}\nfn it_holds() {}\n";
        assert_eq!(
            mutated(
                "crates/demo/tests/t.rs",
                "#[test]\n#[ignore]\nfn it_holds() {}\n",
                commented
            )
            .len(),
            1
        );
    }

    #[test]
    fn a_changed_result_figure_is_flagged() {
        let line = line_of("result:");
        assert_eq!(
            mutated("results/fig8.txt", "0.746", "0.747"),
            [format!(
                "EXPERIMENTS.md:{line}: [claims] `result:results/fig8.txt:C url HOT 0.746`: the needle is not in results/fig8.txt"
            )]
        );
    }

    #[test]
    fn a_deleted_benchmark_metric_is_flagged() {
        let line = line_of("bench:");
        assert_eq!(
            mutated("BENCHMARK.json", "throughput_mops", "setup_s"),
            [format!(
                "EXPERIMENTS.md:{line}: [claims] `bench:throughput_mops`: BENCHMARK.json names no `throughput_mops`"
            )]
        );
    }

    #[test]
    fn a_missing_section_is_flagged() {
        let line = line_of("section:");
        assert_eq!(
            mutated("EXPERIMENTS.md", "`section:Figure 8`", "`section:Figure 12`"),
            [format!(
                "EXPERIMENTS.md:{line}: [claims] `section:Figure 12`: no EXPERIMENTS.md heading starts with `Figure 12`"
            )]
        );
    }

    #[test]
    fn a_missing_change_entry_is_flagged() {
        let line = line_of("changes:");
        assert_eq!(
            mutated("CHANGES.md", "PR 7:", "PR 8:"),
            [format!(
                "EXPERIMENTS.md:{line}: [claims] `changes:PR 7`: CHANGES.md has no `PR 7:` entry"
            )]
        );
    }

    #[test]
    fn rows_without_evidence_or_with_an_unknown_kind_are_flagged() {
        let line = line_of("changes:");
        assert_eq!(
            mutated("EXPERIMENTS.md", "`changes:PR 7`", "CHANGES.md"),
            [format!(
                "EXPERIMENTS.md:{line}: [claims] verdict row carries no evidence"
            )]
        );
        assert_eq!(
            mutated("EXPERIMENTS.md", "`changes:PR 7`", "`commit:abc`"),
            [format!(
                "EXPERIMENTS.md:{line}: [claims] `commit:abc`: unknown evidence kind (test, result, bench, section, changes)"
            )]
        );
    }

    #[test]
    fn a_wrong_summary_count_is_flagged() {
        let line = line_of(SUMMARY);
        let counts = [[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1]];
        assert_eq!(
            mutated("EXPERIMENTS.md", "Paper: 1 ✓", "Paper: 2 ✓"),
            [format!(
                "EXPERIMENTS.md:{line}: [claims] the summary disagrees with the verdict table, which counts: {}",
                summary(&counts)
            )]
        );
        assert_eq!(
            summary(&counts),
            "**Summary:** 2 ✓, 1 ≈, 1 ✗, 1 untestable of 5 verdict rows. \
             Paper: 1 ✓, 1 ≈, 0 ✗, 0 untestable of 2. \
             Beyond-paper: 1 ✓, 0 ≈, 0 ✗, 0 untestable of 1. \
             Design: 0 ✓, 0 ≈, 1 ✗, 1 untestable of 2."
        );
    }

    #[test]
    fn a_dangling_design_section_is_flagged() {
        let mut tree = clean_tree();
        tree.insert(
            "crates/demo/src/lib.rs".into(),
            "//! The rule is DESIGN.md §3.6.\n\n/// See DESIGN.md\n/// §4.5 for why.\nfn f() {}\n\n#[cfg(test)]\nmod tests {\n    // DESIGN.md §9 is a fixture here.\n}\n"
                .into(),
        );
        tree.insert("lint/x.toml".into(), "# DESIGN.md §3 and §3.7\n".into());
        assert_eq!(
            findings(&tree),
            ["crates/demo/src/lib.rs:3: [claims] `DESIGN.md §4.5` names no DESIGN.md heading",]
        );
    }

    #[test]
    fn a_dangling_quoted_heading_is_flagged() {
        let mut tree = clean_tree();
        tree.insert(
            "README.md".into(),
            "Numbers: EXPERIMENTS.md, \"Figure\n8 (Section\". Gone: (EXPERIMENTS.md \"Figure\n9\").\nSee [EXPERIMENTS.md](EXPERIMENTS.md).\n"
                .into(),
        );
        // Root-level history is not checked.
        tree.insert(
            "CHANGES.md".into(),
            "PR 7: EXPERIMENTS.md \"Gone\"\n".into(),
        );
        assert_eq!(
            findings(&tree),
            ["README.md:2: [claims] `EXPERIMENTS.md \"Figure 9\"` starts no EXPERIMENTS.md heading"]
        );
    }
}
