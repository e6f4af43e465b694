//! Hot-path allocation freedom and dispatch hoisting.
//!
//! PRs 4 and 6 established "zero steady-state allocations" on the descent
//! paths (`get*`, `scan_with`/`scan_into`, the `*_batch*` pipelines, the
//! `MlpScheduler` loop); this pass keeps later edits honest. The
//! functions under the rule are named in `lint/hot_paths.toml`
//! (`[[hot]] file = …, functions = […]`); inside their bodies the
//! allocating constructs below are denied. A documented cold edge (an
//! empty placeholder buffer, a once-per-trie setup) gets an
//! `[[allow]] file/function/construct/why` entry — per function and per
//! construct, so the allowance cannot silently widen.
//!
//! The same mechanism holds the "one ISA dispatch per call" rule
//! (DESIGN.md §3.6): a `features()` read is denied on every listed
//! function, and each descent entry point that performs the call's one
//! dispatch carries an `[[allow]]` for it — so the feature check cannot
//! slide back into a loop body or a per-node primitive unnoticed.
//!
//! Stale manifest rows (a listed function that no longer exists, an
//! allow that matches nothing) are errors too: the manifest must track
//! the code.

use super::{Diag, SourceFile};
use crate::toml::Table;

const PASS: &str = "hot-path";

/// The denied constructs: textual tokens whose presence on a hot path
/// means a steady-state allocation (or an O(n) copy that implies one) —
/// or, for `features()`, a CPU-feature dispatch that belongs at the
/// call's entry.
const DENIED: &[&str] = &[
    "Vec::new",
    "vec!",
    "Box::new",
    "format!",
    ".to_vec()",
    ".collect",
    "String::",
    ".to_string()",
    ".to_owned()",
    "with_capacity",
    "features()",
];

struct Allow {
    file: String,
    function: String,
    construct: String,
    line: usize,
    used: bool,
}

/// Run the pass.
pub fn run(
    sources: &[SourceFile],
    manifest: &[Table],
    diags: &mut Vec<Diag>,
) -> Result<(), String> {
    let mut hot: Vec<(String, Vec<String>, usize)> = Vec::new();
    let mut allows: Vec<Allow> = Vec::new();
    for table in manifest {
        match table.name.as_str() {
            "hot" => hot.push((
                table.str_field("file")?.to_string(),
                table.arr_field("functions")?.to_vec(),
                table.line,
            )),
            "allow" => {
                table.str_field("why")?; // required, content free-form
                let construct = table.str_field("construct")?;
                if !DENIED.contains(&construct) {
                    return Err(format!(
                        "lint/hot_paths.toml: [[allow]] at line {} names unknown construct \
                         {construct:?} (denied set: {DENIED:?})",
                        table.line
                    ));
                }
                allows.push(Allow {
                    file: table.str_field("file")?.to_string(),
                    function: table.str_field("function")?.to_string(),
                    construct: construct.to_string(),
                    line: table.line,
                    used: false,
                });
            }
            other => {
                return Err(format!(
                    "lint/hot_paths.toml: unknown table [[{other}]] at line {} \
                     (only [[hot]] and [[allow]])",
                    table.line
                ));
            }
        }
    }

    for (file, functions, manifest_line) in &hot {
        let Some(sf) = sources.iter().find(|s| &s.rel == file) else {
            diags.push(Diag {
                file: "lint/hot_paths.toml".into(),
                line: *manifest_line,
                pass: PASS,
                msg: format!("[[hot]] names missing file `{file}` — stale manifest entry"),
            });
            continue;
        };
        for function in functions {
            let spans: Vec<_> = sf
                .file
                .fns
                .iter()
                .filter(|f| &f.name == function && !sf.is_test_line(f.sig_start))
                .collect();
            if spans.is_empty() {
                diags.push(Diag {
                    file: "lint/hot_paths.toml".into(),
                    line: *manifest_line,
                    pass: PASS,
                    msg: format!(
                        "[[hot]] {file} lists function `{function}` which does not exist — \
                         stale manifest entry"
                    ),
                });
                continue;
            }
            for span in spans {
                for l in span.body_start..=span.body_end {
                    if sf.is_test_line(l) {
                        continue;
                    }
                    let code = &sf.file.lines[l].code;
                    for construct in DENIED {
                        if !code.contains(construct) {
                            continue;
                        }
                        if let Some(allow) = allows.iter_mut().find(|a| {
                            &a.file == file && &a.function == function && a.construct == *construct
                        }) {
                            allow.used = true;
                            continue;
                        }
                        diags.push(Diag {
                            file: file.clone(),
                            line: l + 1,
                            pass: PASS,
                            msg: format!(
                                "{} `{construct}` on hot path `{function}` — \
                                 hoist it out of the descent loop or add a justified [[allow]] \
                                 entry to lint/hot_paths.toml",
                                if *construct == "features()" {
                                    "ISA dispatch"
                                } else {
                                    "allocating construct"
                                }
                            ),
                        });
                    }
                }
            }
        }
    }

    for allow in &allows {
        if !allow.used {
            diags.push(Diag {
                file: "lint/hot_paths.toml".into(),
                line: allow.line,
                pass: PASS,
                msg: format!(
                    "[[allow]] {} `{}` `{}` matches nothing — stale allowance, delete it",
                    allow.file, allow.function, allow.construct
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::tests::fixture;

    fn manifest(text: &str) -> Vec<Table> {
        crate::toml::parse(text).expect("manifest parses")
    }

    const REL: &str = "crates/hot-core/src/scan.rs";
    const HOT: &str =
        "[[hot]]\nfile = \"crates/hot-core/src/scan.rs\"\nfunctions = [\"scan_with\"]\n";

    fn run_on(src: &str, manifest_text: &str) -> Vec<String> {
        let sources = vec![fixture(REL, src)];
        let mut diags = Vec::new();
        run(&sources, &manifest(manifest_text), &mut diags).expect("pass runs");
        diags.iter().map(|d| d.render()).collect()
    }

    #[test]
    fn seeded_vec_new_in_scan_with_is_flagged() {
        let diags = run_on(
            "fn scan_with(&mut self) {\n    let mut out = Vec::new();\n    out.push(1);\n}\n",
            HOT,
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(
            diags[0],
            "crates/hot-core/src/scan.rs:2: [hot-path] allocating construct `Vec::new` on hot \
             path `scan_with` — hoist it out of the descent loop or add a justified [[allow]] \
             entry to lint/hot_paths.toml"
        );
    }

    #[test]
    fn every_denied_construct_fires() {
        for construct in DENIED {
            let stmt = match *construct {
                "vec!" => "let x = vec![0u8; 4];".to_string(),
                "format!" => "let x = format!(\"{}\", 1);".to_string(),
                ".to_vec()" => "let x = s.to_vec();".to_string(),
                ".collect" => "let x: Vec<u8> = it.collect();".to_string(),
                "String::" => "let x = String::new();".to_string(),
                ".to_string()" => "let x = v.to_string();".to_string(),
                ".to_owned()" => "let x = v.to_owned();".to_string(),
                "with_capacity" => "let x = Vec::with_capacity(8);".to_string(),
                "features()" => "let x = hot_bits::features().avx2;".to_string(),
                c => format!("let x = {c}(0);"),
            };
            let src = format!("fn scan_with(&mut self) {{\n    {stmt}\n}}\n");
            let diags = run_on(&src, HOT);
            assert_eq!(
                diags.len(),
                1,
                "construct {construct} did not fire: {diags:?}"
            );
            assert!(
                diags[0].contains(construct),
                "wrong construct named: {}",
                diags[0]
            );
        }
    }

    #[test]
    fn allow_entry_silences_exactly_its_construct() {
        let with_allow = format!(
            "{HOT}\n[[allow]]\nfile = \"{REL}\"\nfunction = \"scan_with\"\nconstruct = \"Vec::new\"\nwhy = \"empty placeholder, never grows\"\n"
        );
        let src = "fn scan_with(&mut self) {\n    let a = Vec::new();\n    let b = vec![1];\n}\n";
        let diags = run_on(src, &with_allow);
        assert_eq!(
            diags.len(),
            1,
            "only the un-allowed construct fires: {diags:?}"
        );
        assert!(diags[0].contains("`vec!`"));
    }

    #[test]
    fn isa_dispatch_is_allowed_at_the_entry_and_flagged_in_the_body() {
        let manifest = format!(
            "[[hot]]\nfile = \"{REL}\"\nfunctions = [\"scan_with\", \"scan_on\"]\n\n[[allow]]\nfile = \"{REL}\"\nfunction = \"scan_with\"\nconstruct = \"features()\"\nwhy = \"the call's one ISA dispatch\"\n"
        );
        let hoisted = "fn scan_with(&mut self) {\n    match hot_bits::features().isa() {\n        _ => self.scan_on(),\n    }\n}\n\nfn scan_on(&mut self) {\n    self.frames.push(1);\n}\n";
        assert!(run_on(hoisted, &manifest).is_empty());
        let slid_back = "fn scan_with(&mut self) {\n    match hot_bits::features().isa() {\n        _ => self.scan_on(),\n    }\n}\n\nfn scan_on(&mut self) {\n    if hot_bits::features().avx2 {\n        self.frames.push(1);\n    }\n}\n";
        let diags = run_on(slid_back, &manifest);
        assert_eq!(diags.len(), 1, "got: {diags:?}");
        assert!(
            diags[0].contains("ISA dispatch `features()` on hot path `scan_on`"),
            "{}",
            diags[0]
        );
    }

    #[test]
    fn clean_hot_path_and_cold_functions_pass() {
        let src = "fn scan_with(&mut self) {\n    self.frames.push(1);\n}\n\nfn setup() -> Vec<u8> {\n    Vec::new()\n}\n";
        assert!(run_on(src, HOT).is_empty());
    }

    #[test]
    fn stale_function_and_stale_allow_are_flagged() {
        let with_allow = format!(
            "[[hot]]\nfile = \"{REL}\"\nfunctions = [\"gone\"]\n\n[[allow]]\nfile = \"{REL}\"\nfunction = \"gone\"\nconstruct = \"Vec::new\"\nwhy = \"stale\"\n"
        );
        let diags = run_on("fn scan_with(&mut self) {}\n", &with_allow);
        assert_eq!(diags.len(), 2, "got: {diags:?}");
        assert!(diags
            .iter()
            .any(|d| d.contains("`gone` which does not exist")));
        assert!(diags.iter().any(|d| d.contains("matches nothing")));
    }

    #[test]
    fn test_mod_code_is_not_scanned() {
        let src = "fn scan_with(&mut self) {\n    self.frames.push(1);\n}\n\n#[cfg(test)]\nmod tests {\n    fn scan_with() {\n        let x = Vec::new();\n    }\n}\n";
        assert!(run_on(src, HOT).is_empty());
    }
}
