//! Atomics-protocol conformance (DESIGN.md §10 made machine-checked).
//!
//! Every `Ordering::<variant>` call site in library code must either live
//! in the **sync layer** — `sync.rs`, `sync_shim.rs`, or the
//! `hot-metrics` crate — or be listed in `lint/atomics.toml` with its
//! file, enclosing function, ordering and a one-line `why`. On top of
//! placement:
//!
//! * `Ordering::SeqCst` is banned outright in workspace code (the
//!   protocol is all explicit acquire/release pairs; a SeqCst site is
//!   either a misunderstanding or an undocumented protocol change). The
//!   one exception is the vendored epoch collector
//!   (`third_party/crossbeam-epoch`), whose pin / seal / advance fences
//!   need store-load ordering that no acquire/release pair gives: there a
//!   SeqCst site is held to the ordinary rules — manifested with its
//!   `why`, annotated, and counted as both sides of its group;
//! * every **non-Relaxed** site must be covered by a
//!   `// pairs-with: <group>[, <group>]` annotation, and every group must
//!   be *symmetric*: at least two sites, at least one acquire side
//!   (`Acquire`/`AcqRel`) and at least one release side
//!   (`Release`/`AcqRel`). A single-member group is a dangling reference
//!   — its counterpart was deleted or never written.
//!
//! An annotation covers its own line plus the remainder of the statement
//! it opens (up to and including the first following line whose code
//! contains `;` or `{`), so one comment covers a multi-line
//! `compare_exchange(…, AcqRel, Acquire)` call.
//!
//! Test scaffolding (`tests/`/`benches/`/`examples/` dirs, `#[cfg(test)]`
//! mods) is exempt from placement and annotation — but not from the
//! SeqCst ban. `std::cmp::Ordering` never matches: only the five atomic
//! variants are recognized. Of `third_party/` only the epoch collector is
//! scanned (see [`super::load_sources`]).

use super::{Diag, SourceFile};
use crate::lexer::is_ident_char;
use crate::toml::Table;

const PASS: &str = "atomics";

/// The five atomic orderings (`cmp::Ordering`'s variants are not these).
const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Does this path belong to the sync layer?
fn in_sync_layer(rel: &str) -> bool {
    rel.ends_with("/sync.rs")
        || rel.ends_with("/sync_shim.rs")
        || rel.starts_with("crates/hot-metrics/")
}

/// One detected `Ordering::<variant>` occurrence.
struct Site<'a> {
    file: &'a SourceFile,
    /// 0-based line index.
    line: usize,
    ordering: &'static str,
}

/// One parsed manifest entry with its match counter.
struct ManifestEntry {
    file: String,
    function: String,
    ordering: String,
    count: i64,
    line: usize,
    matched: i64,
}

/// Run the pass.
pub fn run(
    sources: &[SourceFile],
    manifest: &[Table],
    diags: &mut Vec<Diag>,
) -> Result<(), String> {
    let mut entries = Vec::new();
    for table in manifest {
        if table.name != "site" {
            return Err(format!(
                "lint/atomics.toml: unknown table [[{}]] at line {} (only [[site]])",
                table.name, table.line
            ));
        }
        table.str_field("why")?; // required, content free-form
        entries.push(ManifestEntry {
            file: table.str_field("file")?.to_string(),
            function: table.str_field("function")?.to_string(),
            ordering: table.str_field("ordering")?.to_string(),
            count: table.int_field_or("count", 1)?,
            line: table.line,
            matched: 0,
        });
    }

    let mut sites = Vec::new();
    for sf in sources {
        for (idx, line) in sf.file.lines.iter().enumerate() {
            for ordering in find_orderings(&line.code) {
                sites.push(Site {
                    file: sf,
                    line: idx,
                    ordering,
                });
            }
        }
    }

    // Group membership: group name -> [(file rel, line, ordering)].
    type Member = (String, usize, &'static str);
    let mut groups: Vec<(String, Vec<Member>)> = Vec::new();

    for site in &sites {
        let sf = site.file;
        let lineno = site.line + 1;
        // Rule 1: no SeqCst in workspace code, test code included.
        if site.ordering == "SeqCst" && !sf.rel.starts_with("third_party/") {
            diags.push(Diag {
                file: sf.rel.clone(),
                line: lineno,
                pass: PASS,
                msg: "Ordering::SeqCst is banned: the ROWEX protocol is explicit acquire/release \
                      pairs — pick the weakest correct ordering and annotate its pairing"
                    .into(),
            });
            continue;
        }
        if sf.is_test_line(site.line) {
            continue; // test scaffolding: placement/annotation exempt
        }
        // Rule 2: placement — sync layer or manifested.
        if !in_sync_layer(&sf.rel) {
            let function = sf
                .file
                .enclosing_fn(site.line)
                .map(|f| f.name.clone())
                .unwrap_or_else(|| "<module>".into());
            match entries
                .iter_mut()
                .find(|e| e.file == sf.rel && e.function == function && e.ordering == site.ordering)
            {
                Some(entry) => entry.matched += 1,
                None => {
                    diags.push(Diag {
                        file: sf.rel.clone(),
                        line: lineno,
                        pass: PASS,
                        msg: format!(
                            "atomic Ordering::{} in `{function}` outside the sync layer and not \
                             in lint/atomics.toml — move it behind sync.rs/sync_shim.rs or add a \
                             manifested [[site]] entry with a why",
                            site.ordering
                        ),
                    });
                    continue;
                }
            }
        }
        // Rule 3: non-Relaxed sites must carry a pairs-with group.
        if site.ordering != "Relaxed" {
            let site_groups = covering_groups(sf, site.line);
            if site_groups.is_empty() {
                diags.push(Diag {
                    file: sf.rel.clone(),
                    line: lineno,
                    pass: PASS,
                    msg: format!(
                        "non-Relaxed atomic (Ordering::{}) without a `// pairs-with: <group>` \
                         annotation naming its acquire/release counterpart",
                        site.ordering
                    ),
                });
            }
            for g in site_groups {
                let gi = match groups.iter().position(|(name, _)| *name == g) {
                    Some(i) => i,
                    None => {
                        groups.push((g, Vec::new()));
                        groups.len() - 1
                    }
                };
                groups[gi].1.push((sf.rel.clone(), lineno, site.ordering));
            }
        }
    }

    // Rule 4: group symmetry.
    for (name, members) in &groups {
        let first = &members[0];
        if members.len() < 2 {
            diags.push(Diag {
                file: first.0.clone(),
                line: first.1,
                pass: PASS,
                msg: format!(
                    "dangling pairs-with group `{name}`: only one annotated site — its \
                     counterpart was deleted, renamed, or never annotated"
                ),
            });
            continue;
        }
        let acquire = members
            .iter()
            .any(|m| matches!(m.2, "Acquire" | "AcqRel" | "SeqCst"));
        let release = members
            .iter()
            .any(|m| matches!(m.2, "Release" | "AcqRel" | "SeqCst"));
        if !acquire || !release {
            let missing = if acquire { "release" } else { "acquire" };
            let roster: Vec<String> = members
                .iter()
                .map(|(f, l, o)| format!("{f}:{l} ({o})"))
                .collect();
            diags.push(Diag {
                file: first.0.clone(),
                line: first.1,
                pass: PASS,
                msg: format!(
                    "asymmetric pairs-with group `{name}`: no {missing} side among [{}]",
                    roster.join(", ")
                ),
            });
        }
    }

    // Rule 5: manifest hygiene — every entry must match exactly `count`.
    for entry in &entries {
        if entry.matched != entry.count {
            diags.push(Diag {
                file: "lint/atomics.toml".into(),
                line: entry.line,
                pass: PASS,
                msg: format!(
                    "[[site]] {} `{}` Ordering::{}: manifest says count = {}, found {} — \
                     update the manifest to match the code (or delete the stale entry)",
                    entry.file, entry.function, entry.ordering, entry.count, entry.matched
                ),
            });
        }
    }
    Ok(())
}

/// All atomic-ordering variants referenced on one code line.
fn find_orderings(code: &str) -> Vec<&'static str> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = code[from..].find("Ordering::") {
        let at = from + p;
        from = at + "Ordering::".len();
        // `Ordering` must itself be word-bounded on the left (it always is:
        // preceded by `::`, `(`, space, …) — guard anyway.
        if at > 0 && is_ident_char(code.as_bytes()[at - 1]) {
            continue;
        }
        let rest = &code[from..];
        for variant in ORDERINGS {
            if rest.starts_with(variant)
                && !rest[variant.len()..].starts_with(|c: char| is_ident_char(c as u8))
            {
                out.push(variant);
                break;
            }
        }
    }
    out
}

/// The pairs-with groups covering `line` (0-based): an annotation covers
/// its own line plus the rest of the statement it opens.
fn covering_groups(sf: &SourceFile, line: usize) -> Vec<String> {
    let mut out = Vec::new();
    // Walk up from the site: the annotation may sit on the site line or on
    // an earlier line of the same statement. A line starts a new statement
    // region when the *previous* line's code ended a statement (`;` or
    // brace) or was blank-with-no-annotation.
    let mut l = line;
    loop {
        for g in parse_annotation(&sf.file.lines[l].comment) {
            if !out.contains(&g) {
                out.push(g);
            }
        }
        if l == 0 {
            break;
        }
        let prev = &sf.file.lines[l - 1];
        let prev_code = prev.code.trim();
        let prev_ends_stmt =
            prev_code.ends_with(';') || prev_code.ends_with('{') || prev_code.ends_with('}');
        let prev_is_comment_only = prev_code.is_empty() && !prev.comment.trim().is_empty();
        if prev_code.is_empty() && !prev_is_comment_only {
            break; // blank line: statement run ended
        }
        if prev_ends_stmt && !prev_is_comment_only {
            break; // previous line closed a statement: annotation out of range
        }
        l -= 1;
    }
    out
}

/// Parse `pairs-with: a, b` out of a comment; group names are
/// `[a-z0-9-]+` tokens, the list ends at the first non-group token.
fn parse_annotation(comment: &str) -> Vec<String> {
    let Some(at) = comment.find("pairs-with:") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let rest = &comment[at + "pairs-with:".len()..];
    for piece in rest.split(',') {
        let token = piece.split_whitespace().next().unwrap_or("");
        let clean = token.trim_end_matches([')', '.', ';']);
        if !clean.is_empty()
            && clean
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
        {
            out.push(clean.to_string());
            // Only continue to the next comma-piece if this piece was
            // exactly the group token (otherwise prose follows).
            if piece.trim() != clean {
                break;
            }
        } else {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::tests::fixture;

    fn run_on(rel: &str, src: &str) -> Vec<String> {
        let sources = vec![fixture(rel, src)];
        let mut diags = Vec::new();
        run(&sources, &[], &mut diags).expect("pass runs");
        diags.iter().map(|d| d.render()).collect()
    }

    #[test]
    fn seeded_seqcst_is_flagged_even_in_sync_layer() {
        let diags = run_on(
            "crates/hot-core/src/sync.rs",
            "fn f(x: &AtomicU32) -> u32 {\n    x.load(Ordering::SeqCst)\n}\n",
        );
        assert_eq!(diags.len(), 1);
        assert!(
            diags[0]
                .starts_with("crates/hot-core/src/sync.rs:2: [atomics] Ordering::SeqCst is banned"),
            "unexpected diagnostic: {}",
            diags[0]
        );
    }

    #[test]
    fn vendored_epoch_seqcst_fence_needs_manifest_and_annotation() {
        let rel = "third_party/crossbeam-epoch/src/lib.rs";
        let src = "fn pin() {\n    fence(Ordering::SeqCst);\n}\n";
        // Not banned there, but held to placement …
        let diags = run_on(rel, src);
        assert_eq!(diags.len(), 1, "got: {diags:?}");
        assert!(
            diags[0].contains("Ordering::SeqCst in `pin` outside the sync layer"),
            "{}",
            diags[0]
        );
        // … and, once manifested, to the pairs-with rule.
        let manifest = crate::toml::parse(&format!(
            "[[site]]\nfile = \"{rel}\"\nfunction = \"pin\"\nordering = \"SeqCst\"\nwhy = \"pin fence\"\n"
        ))
        .expect("manifest parses");
        let mut diags = Vec::new();
        run(&[fixture(rel, src)], &manifest, &mut diags).expect("pass runs");
        assert_eq!(diags.len(), 1);
        assert!(
            diags[0].msg.contains("without a `// pairs-with:"),
            "{}",
            diags[0].msg
        );
    }

    #[test]
    fn seeded_unmanifested_site_outside_sync_layer_is_flagged() {
        let diags = run_on(
            "crates/hot-core/src/trie.rs",
            "fn probe(x: &AtomicU32) -> u32 {\n    x.load(Ordering::Relaxed)\n}\n",
        );
        assert_eq!(diags.len(), 1);
        assert!(
            diags[0].contains("atomic Ordering::Relaxed in `probe` outside the sync layer"),
            "unexpected diagnostic: {}",
            diags[0]
        );
    }

    #[test]
    fn seeded_unannotated_release_is_flagged() {
        let diags = run_on(
            "crates/hot-core/src/sync.rs",
            "fn publish(x: &AtomicU64, v: u64) {\n    x.store(v, Ordering::Release);\n}\n",
        );
        assert_eq!(diags.len(), 1);
        assert!(
            diags[0].contains("without a `// pairs-with: <group>` annotation"),
            "unexpected diagnostic: {}",
            diags[0]
        );
    }

    #[test]
    fn seeded_dangling_group_is_flagged() {
        let diags = run_on(
            "crates/hot-core/src/sync.rs",
            "fn publish(x: &AtomicU64, v: u64) {\n    // pairs-with: lonely-group\n    x.store(v, Ordering::Release);\n}\n",
        );
        assert_eq!(diags.len(), 1);
        assert!(
            diags[0].contains("dangling pairs-with group `lonely-group`"),
            "unexpected diagnostic: {}",
            diags[0]
        );
    }

    #[test]
    fn seeded_asymmetric_group_is_flagged() {
        let src = "fn a(x: &AtomicU64, v: u64) {\n    // pairs-with: one-sided\n    x.store(v, Ordering::Release);\n}\nfn b(x: &AtomicU64, v: u64) {\n    // pairs-with: one-sided\n    x.store(v, Ordering::Release);\n}\n";
        let diags = run_on("crates/hot-core/src/sync.rs", src);
        assert_eq!(diags.len(), 1);
        assert!(
            diags[0].contains("asymmetric pairs-with group `one-sided`: no acquire side"),
            "unexpected diagnostic: {}",
            diags[0]
        );
    }

    #[test]
    fn symmetric_group_across_files_is_clean() {
        let store = fixture(
            "crates/hot-core/src/sync.rs",
            "fn publish(x: &AtomicU64, v: u64) {\n    // pairs-with: root-publish\n    x.store(v, Ordering::Release);\n}\n",
        );
        let load = fixture(
            "crates/hot-core/src/sync_shim.rs",
            "fn read(x: &AtomicU64) -> u64 {\n    // pairs-with: root-publish\n    x.load(Ordering::Acquire)\n}\n",
        );
        let mut diags = Vec::new();
        run(&[store, load], &[], &mut diags).expect("pass runs");
        assert!(
            diags.is_empty(),
            "expected clean, got: {}",
            diags[0].render()
        );
    }

    #[test]
    fn annotation_covers_a_multiline_statement() {
        let src = "fn cas(x: &AtomicU64) {\n    // pairs-with: root-publish\n    x.compare_exchange(\n        0,\n        1,\n        Ordering::AcqRel,\n        Ordering::Acquire,\n    ).ok();\n}\n";
        let diags = run_on("crates/hot-core/src/sync.rs", src);
        // AcqRel covers both sides, two members (AcqRel + failure Acquire):
        // the group is symmetric and covered — no findings.
        assert!(diags.is_empty(), "expected clean, got: {}", diags[0]);
    }

    #[test]
    fn annotation_does_not_leak_past_its_statement() {
        let src = "fn f(x: &AtomicU64, v: u64) {\n    // pairs-with: g\n    x.store(v, Ordering::Release);\n    x.load(Ordering::Acquire);\n}\n";
        let diags = run_on("crates/hot-core/src/sync.rs", src);
        // The load on line 4 is NOT covered (the annotation's statement
        // ended at the store): one unannotated finding + `g` dangling.
        assert_eq!(diags.len(), 2, "got: {diags:?}");
        assert!(diags
            .iter()
            .any(|d| d.contains("without a `// pairs-with:")));
        assert!(diags
            .iter()
            .any(|d| d.contains("dangling pairs-with group `g`")));
    }

    #[test]
    fn manifest_covers_placement_and_counts_are_checked() {
        let src = "fn bytes(x: &AtomicUsize) -> usize {\n    x.load(Ordering::Relaxed)\n}\n";
        let manifest = crate::toml::parse(
            "[[site]]\nfile = \"crates/hot-core/src/node/mod.rs\"\nfunction = \"bytes\"\nordering = \"Relaxed\"\ncount = 2\nwhy = \"allocation counter\"\n",
        )
        .expect("manifest parses");
        let sources = vec![fixture("crates/hot-core/src/node/mod.rs", src)];
        let mut diags = Vec::new();
        run(&sources, &manifest, &mut diags).expect("pass runs");
        // One site matched but the manifest claims two: count mismatch.
        assert_eq!(diags.len(), 1);
        assert!(
            diags[0].msg.contains("manifest says count = 2, found 1"),
            "{}",
            diags[0].msg
        );
    }

    #[test]
    fn cmp_ordering_and_test_code_do_not_fire() {
        let src = "fn f(a: u8, b: u8) -> std::cmp::Ordering {\n    match a.cmp(&b) {\n        std::cmp::Ordering::Less => std::cmp::Ordering::Less,\n        o => o,\n    }\n}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t(x: &AtomicU32) {\n        x.load(Ordering::Relaxed);\n    }\n}\n";
        let diags = run_on("crates/hot-core/src/trie.rs", src);
        assert!(diags.is_empty(), "expected clean, got: {}", diags[0]);
    }
}
