//! Every `unsafe` site needs a written justification.
//!
//! * `unsafe { ... }` blocks and `unsafe impl`s need a `// SAFETY:`
//!   comment — on the same line or in the comment/attribute lines
//!   immediately above.
//! * `unsafe fn` declarations need their contract documented: a
//!   `# Safety` doc section (or a `SAFETY:` comment) above the
//!   declaration.
//!
//! This is deliberately stricter than clippy's
//! `undocumented_unsafe_blocks` (which the workspace also enables): it
//! covers `unsafe fn` contracts, runs without a build, and fails with a
//! file:line listing. The scan runs on the shared
//! [`lexer`](crate::lexer), so `unsafe` inside raw strings, byte literals
//! or nested block comments never registers as a site.
//!
//! The pass walks the files the [`budget`](super::budget) pass counts —
//! one lexing of each file serves both: [`scan`] reports a file's
//! unjustified sites and returns how many sites it holds.

use super::Diag;
use crate::lexer::{find_word, lex, Line};

/// The pass name diagnostics carry.
pub const PASS: &str = "safety";

/// What an `unsafe` keyword introduces.
#[derive(Clone, Copy, PartialEq)]
enum Site {
    Block,
    Impl,
    Fn,
}

/// Scan one file (`rel` is its workspace-relative path): push a finding per
/// unjustified site, return the number of sites.
pub fn scan(rel: &str, text: &str, diags: &mut Vec<Diag>) -> usize {
    let lines = lex(text);
    let mut sites = 0;
    for (idx, line) in lines.iter().enumerate() {
        for site_col in find_word(&line.code, "unsafe") {
            let Some(site) = classify(&lines, idx, site_col) else {
                continue; // `unsafe trait` declarations, attribute fragments, macro text
            };
            sites += 1;
            if !justified(&lines, idx, site) {
                let msg = match site {
                    Site::Block => "unsafe block without a `// SAFETY:` comment",
                    Site::Impl => "unsafe impl without a `// SAFETY:` comment",
                    Site::Fn => "unsafe fn without a `# Safety` doc section (or SAFETY comment)",
                };
                diags.push(Diag {
                    file: rel.to_string(),
                    line: idx + 1,
                    pass: PASS,
                    msg: msg.into(),
                });
            }
        }
    }
    sites
}

/// Look at the token after `unsafe` (possibly on a later line) and decide
/// what kind of site this is. `unsafe trait` declarations are contracts on
/// implementors, not sites, and are skipped.
fn classify(lines: &[Line], line: usize, col: usize) -> Option<Site> {
    let mut rest = lines[line].code[col + "unsafe".len()..].to_string();
    let mut next_line = line + 1;
    loop {
        let trimmed = rest.trim_start();
        if !trimmed.is_empty() {
            return if trimmed.starts_with('{') {
                Some(Site::Block)
            } else if trimmed.starts_with("impl") {
                Some(Site::Impl)
            } else if trimmed.starts_with("fn") || trimmed.starts_with("extern") {
                Some(Site::Fn)
            } else {
                None // `unsafe trait`, attribute fragments, macro text
            };
        }
        if next_line >= lines.len() {
            return None;
        }
        rest = lines[next_line].code.clone();
        next_line += 1;
    }
}

/// A site is justified by `SAFETY:` (any site) or `# Safety` (fns) — on
/// the same line, or in the contiguous run of comment/attribute/blank
/// lines directly above the site (i.e. above the item's attributes and
/// doc block, nothing else in between).
fn justified(lines: &[Line], line: usize, site: Site) -> bool {
    let accept = |l: &Line| {
        l.comment.contains("SAFETY:") || (site == Site::Fn && l.comment.contains("# Safety"))
    };
    if accept(&lines[line]) {
        return true;
    }
    let mut i = line;
    while i > 0 {
        i -= 1;
        let l = &lines[i];
        if accept(l) {
            return true;
        }
        let code = l.code.trim();
        let is_attr_or_blank = code.is_empty() || code.starts_with("#[") || code.starts_with("#![");
        let has_comment = !l.comment.trim().is_empty();
        if !is_attr_or_blank && !has_comment {
            return false; // hit a real code line: the run above ended
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> usize {
        let mut diags = Vec::new();
        scan("t.rs", src, &mut diags);
        diags.len()
    }

    #[test]
    fn flags_bare_block() {
        assert_eq!(findings("fn f() { unsafe { g() } }"), 1);
    }

    #[test]
    fn accepts_same_line_and_preceding_comment() {
        assert_eq!(findings("// SAFETY: fine\nlet x = unsafe { g() };"), 0);
        assert_eq!(findings("let x = unsafe { g() }; // SAFETY: fine"), 0);
    }

    #[test]
    fn comment_must_be_adjacent() {
        assert_eq!(
            findings("// SAFETY: stale\nlet y = 1;\nlet x = unsafe { g() };"),
            1
        );
    }

    #[test]
    fn unsafe_fn_needs_safety_docs() {
        assert_eq!(findings("unsafe fn f() {}"), 1);
        assert_eq!(
            findings("/// # Safety\n/// caller checks\nunsafe fn f() {}"),
            0
        );
        // Attributes between docs and fn are fine.
        assert_eq!(
            findings("/// # Safety\n/// caller checks\n#[inline]\npub unsafe fn f() {}"),
            0
        );
    }

    #[test]
    fn unsafe_impl_needs_comment() {
        assert_eq!(findings("unsafe impl Send for T {}"), 1);
        assert_eq!(
            findings("// SAFETY: T owns its data\nunsafe impl Send for T {}"),
            0
        );
    }

    #[test]
    fn strings_and_comments_are_not_sites() {
        assert_eq!(findings("let s = \"unsafe { }\";"), 0);
        assert_eq!(findings("// unsafe { } in a comment\nlet s = 1;"), 0);
        assert_eq!(findings("let s = r#\"unsafe { }\"#;"), 0);
    }

    // The blind-spot regression suite: every tricky literal form that can
    // desync a naive byte scanner, each hiding an `unsafe { ... }` inside
    // the literal (never a site) and followed by a real, unjustified
    // `unsafe` block on the next statement (always exactly one finding —
    // proving the scanner is still synchronized *after* the literal).
    #[test]
    fn raw_string_does_not_hide_or_invent_sites() {
        assert_eq!(
            findings("let s = r#\"unsafe { x }\"#;\nlet y = unsafe { g() };"),
            1
        );
        assert_eq!(
            findings("let s = r##\"quote \"# unsafe\"##;\nlet y = unsafe { g() };"),
            1
        );
    }

    #[test]
    fn byte_and_raw_byte_strings_stay_synchronized() {
        assert_eq!(
            findings("let s = b\"unsafe { x }\";\nlet y = unsafe { g() };"),
            1
        );
        assert_eq!(
            findings("let s = br#\"unsafe \" x\"#;\nlet y = unsafe { g() };"),
            1
        );
    }

    #[test]
    fn quote_byte_literals_stay_synchronized() {
        // `b'"'` — a naive scanner takes the quote as a string opener and
        // swallows the rest of the file.
        assert_eq!(findings("let q = b'\"';\nlet y = unsafe { g() };"), 1);
        assert_eq!(findings("let q = b'\\'';\nlet y = unsafe { g() };"), 1);
        assert_eq!(findings("let q = '\"';\nlet y = unsafe { g() };"), 1);
    }

    #[test]
    fn nested_block_comments_stay_synchronized() {
        assert_eq!(
            findings("/* outer /* unsafe { x } */ still */\nlet y = unsafe { g() };"),
            1
        );
    }

    #[test]
    fn unsafe_trait_is_not_a_site() {
        assert_eq!(findings("unsafe trait Zeroable {}"), 0);
    }

    #[test]
    fn lifetimes_do_not_confuse_the_lexer() {
        assert_eq!(
            findings("fn f<'a>(x: &'a u8) -> &'a u8 { x }\n// SAFETY: ok\nlet y = unsafe { g() };"),
            0
        );
    }

    #[test]
    fn sites_count_justified_and_not() {
        let src = "// SAFETY: ok\nlet a = unsafe { g() };\nlet b = unsafe { h() };\n";
        let mut diags = Vec::new();
        assert_eq!(scan("t.rs", src, &mut diags), 2);
        assert_eq!(diags.len(), 1);
    }

    /// The whole suite over a workspace holding one unjustified, budgeted
    /// `unsafe {}`: the one finding is this pass's, at the site's
    /// `file:line` — which is what makes `cargo xtask lint` exit nonzero.
    #[test]
    fn seeded_unjustified_block_fails_the_lint() {
        let root = std::env::temp_dir().join(format!("xtask-safety-{}", std::process::id()));
        let src = root.join("crates/demo/src");
        std::fs::create_dir_all(&src).expect("fixture dirs");
        std::fs::create_dir_all(root.join("lint")).expect("fixture dirs");
        std::fs::write(src.join("lib.rs"), "fn f() {\n    unsafe {}\n}\n").expect("fixture source");
        for manifest in ["atomics.toml", "hot_paths.toml"] {
            std::fs::write(root.join("lint").join(manifest), "").expect("fixture manifest");
        }
        let budget = "[[budget]]\ncrate = \"demo\"\nsites = 1\n";
        std::fs::write(root.join("lint/unsafe_budget.toml"), budget).expect("fixture manifest");
        // An empty verdict table and the summary that counts it.
        let claims = format!(
            "{}\n\n## Verdict table\n",
            super::super::claims::summary(&[[0; 4]; 3])
        );
        std::fs::write(root.join("EXPERIMENTS.md"), claims).expect("fixture document");

        let report = super::super::run_all(&root);
        std::fs::remove_dir_all(&root).expect("fixture removed");
        let (diags, unsafe_sites) = report.expect("lint infrastructure runs");
        let rendered: Vec<String> = diags.iter().map(Diag::render).collect();
        assert_eq!(
            rendered,
            ["crates/demo/src/lib.rs:2: [safety] unsafe block without a `// SAFETY:` comment"]
        );
        assert_eq!(unsafe_sites, 1);
    }
}
