//! The shared hand-rolled Rust token scanner every xtask lint builds on.
//!
//! This is a *lexer*, not a parser: it splits each source line into the
//! code text (with string/char literal contents blanked) and the comment
//! text (preserved, so `SAFETY:` / `pairs-with:` / `epoch-exempt:`
//! annotations stay scannable), understands nested block comments, raw
//! strings (`r#"…"#`, `br##"…"##`), byte strings and char/byte literals
//! (`b'"'`), and then layers two line-oriented structural passes on top:
//!
//! * [`fn_spans`] — every function item's name plus its signature and
//!   body line ranges, recovered by brace-depth tracking (closures and
//!   nested items are handled; `fn`-pointer *types* are skipped because
//!   no identifier follows the keyword);
//! * [`test_regions`] — the line ranges of `#[cfg(test)] mod … { … }`
//!   blocks, so lints can hold test scaffolding to a different bar than
//!   library code.
//!
//! [`LexedFile`] bundles all three so a file is scanned once per lint run.

/// One source line split into code and comment text.
#[derive(Default)]
pub struct Line {
    /// The line's code with literal contents blanked (`"…"` → `""`,
    /// `'x'` → `' '`).
    pub code: String,
    /// The line's comment text (line, doc and block comments).
    pub comment: String,
}

/// One `fn` item with its line extent (all indices 0-based).
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Line of the `fn` keyword (the signature may span several lines).
    pub sig_start: usize,
    /// Line of the body's opening `{`.
    pub body_start: usize,
    /// Line of the body's closing `}`.
    pub body_end: usize,
}

impl FnSpan {
    /// Whether `line` falls anywhere in this item (signature or body).
    pub fn contains(&self, line: usize) -> bool {
        self.sig_start <= line && line <= self.body_end
    }
}

/// A fully scanned source file: lexed lines plus the structural passes.
pub struct LexedFile {
    /// Per-line code/comment split.
    pub lines: Vec<Line>,
    /// Every function item, in source order (nested fns close first).
    pub fns: Vec<FnSpan>,
    /// Per-line flag: inside a `#[cfg(test)] mod` region.
    pub in_test: Vec<bool>,
}

impl LexedFile {
    /// Lex `text` and run both structural passes.
    pub fn new(text: &str) -> LexedFile {
        let lines = lex(text);
        let fns = fn_spans(&lines);
        let in_test = test_regions(&lines);
        LexedFile {
            lines,
            fns,
            in_test,
        }
    }

    /// The innermost function item containing `line`, if any.
    pub fn enclosing_fn(&self, line: usize) -> Option<&FnSpan> {
        // Innermost = smallest span among those containing the line.
        self.fns
            .iter()
            .filter(|f| f.contains(line))
            .min_by_key(|f| f.body_end - f.sig_start)
    }
}

/// Strip strings and split comments from code, line by line. Understands
/// `//`, `/* */` (nested), string/char/byte literals and raw strings; the
/// contents of strings are blanked so `"unsafe"` in a string is not a
/// site, while comment text is preserved for the annotation scans.
pub fn lex(text: &str) -> Vec<Line> {
    let mut lines = vec![Line::default()];
    let bytes = text.as_bytes();
    let mut i = 0;
    let mut block_comment_depth = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '\n' {
            lines.push(Line::default());
            i += 1;
            continue;
        }
        let cur = lines.last_mut().expect("at least one line");
        if block_comment_depth > 0 {
            if bytes[i..].starts_with(b"*/") {
                block_comment_depth -= 1;
                i += 2;
            } else if bytes[i..].starts_with(b"/*") {
                block_comment_depth += 1;
                i += 2;
            } else {
                cur.comment.push(c);
                i += 1;
            }
            continue;
        }
        if bytes[i..].starts_with(b"//") {
            // Line comment (incl. doc comments): consume to end of line.
            let end = bytes[i..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(bytes.len(), |p| i + p);
            cur.comment.push_str(&text[i..end]);
            i = end;
            continue;
        }
        if bytes[i..].starts_with(b"/*") {
            block_comment_depth += 1;
            i += 2;
            continue;
        }
        if c == '"'
            || (c == 'r' && is_raw_string_start(&bytes[i..]))
            || bytes[i..].starts_with(b"b\"")
            || (bytes[i..].starts_with(b"br") && is_raw_string_start(&bytes[i + 1..]))
        {
            i = skip_string(text, i);
            cur.code.push_str("\"\"");
            continue;
        }
        if bytes[i..].starts_with(b"b'") {
            // Byte literal: same shape as a char literal after the `b`.
            if let Some(end) = char_literal_end(bytes, i + 1) {
                cur.code.push_str("' '");
                i = end;
                continue;
            }
            cur.code.push(c);
            i += 1;
            continue;
        }
        if c == '\'' {
            // Char literal or lifetime. A lifetime is `'` + ident not
            // followed by a closing quote.
            if let Some(end) = char_literal_end(bytes, i) {
                cur.code.push_str("' '");
                i = end;
                continue;
            }
            cur.code.push(c);
            i += 1;
            continue;
        }
        cur.code.push(c);
        i += 1;
    }
    lines
}

fn is_raw_string_start(rest: &[u8]) -> bool {
    // r", r#", r##"…
    let mut j = 1;
    while j < rest.len() && rest[j] == b'#' {
        j += 1;
    }
    j < rest.len() && rest[j] == b'"'
}

/// Byte index just past the string literal starting at `start`.
fn skip_string(text: &str, start: usize) -> usize {
    let bytes = text.as_bytes();
    let mut i = start;
    if bytes[i] == b'b' {
        i += 1;
    }
    if bytes[i] == b'r' {
        i += 1;
        let mut hashes = 0;
        while bytes[i] == b'#' {
            hashes += 1;
            i += 1;
        }
        debug_assert_eq!(bytes[i], b'"');
        i += 1;
        let closer = format!("\"{}", "#".repeat(hashes));
        return text[i..]
            .find(&closer)
            .map_or(text.len(), |p| i + p + closer.len());
    }
    debug_assert_eq!(bytes[i], b'"');
    i += 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    text.len()
}

/// Byte index just past a char literal at `start`, or `None` if this is a
/// lifetime.
fn char_literal_end(bytes: &[u8], start: usize) -> Option<usize> {
    let mut i = start + 1;
    if i >= bytes.len() {
        return None;
    }
    if bytes[i] == b'\\' {
        i += 2;
        while i < bytes.len() && bytes[i] != b'\'' {
            i += 1; // \u{...}
        }
        return (i < bytes.len()).then_some(i + 1);
    }
    // `'x'` is a char; `'x` (no closing quote right after one char-ish
    // token) is a lifetime.
    let ch_len = utf8_len(bytes[i]);
    i += ch_len;
    (i < bytes.len() && bytes[i] == b'\'').then_some(i + 1)
}

/// Byte length of the UTF-8 sequence starting with `first`.
pub fn utf8_len(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        _ => 2,
    }
}

/// Whether `b` can appear in an identifier.
pub fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Column offsets of `word` (word-bounded) in a code line.
pub fn find_word(code: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(p) = code[from..].find(word) {
        let at = from + p;
        let before_ok = at == 0 || !is_ident_char(bytes[at - 1]);
        let after = at + word.len();
        let after_ok = after >= bytes.len() || !is_ident_char(bytes[after]);
        if before_ok && after_ok {
            out.push(at);
        }
        from = after;
    }
    out
}

/// Recover every `fn` item's line extent by brace-depth tracking over the
/// lexed code text. A `fn` keyword only opens a pending item when an
/// identifier follows (so `fn(f64) -> f64` *types* never match); the
/// pending item binds to the next `{` at signature level, and closes when
/// the brace depth returns to its opening value. A `;` at signature level
/// (outside parens/brackets, so `[u8; 4]` params survive) is a bodyless
/// declaration and drops the pending item.
pub fn fn_spans(lines: &[Line]) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    let mut depth = 0usize;
    // A fn whose signature we are inside, awaiting the body's `{`:
    // (name, sig_start, paren/bracket nesting inside the signature).
    let mut pending: Option<(String, usize, usize)> = None;
    // Open bodies: (name, sig_start, body_start, depth at `{`).
    let mut open: Vec<(String, usize, usize, usize)> = Vec::new();
    for (ln, line) in lines.iter().enumerate() {
        let code = &line.code;
        let bytes = code.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'f'
                && code[i..].starts_with("fn")
                && (i == 0 || !is_ident_char(bytes[i - 1]))
                && !code[i + 2..].starts_with(|c: char| is_ident_char(c as u8))
            {
                let rest = code[i + 2..].trim_start();
                let name: String = rest
                    .bytes()
                    .take_while(|&b| is_ident_char(b))
                    .map(char::from)
                    .collect();
                if !name.is_empty() && !name.as_bytes()[0].is_ascii_digit() {
                    pending = Some((name, ln, 0));
                }
                i += 2;
                continue;
            }
            match bytes[i] {
                b'(' | b'[' => {
                    if let Some((_, _, nest)) = pending.as_mut() {
                        *nest += 1;
                    }
                }
                b')' | b']' => {
                    if let Some((_, _, nest)) = pending.as_mut() {
                        *nest = nest.saturating_sub(1);
                    }
                }
                b';' => {
                    if matches!(pending, Some((_, _, 0))) {
                        pending = None; // bodyless declaration
                    }
                }
                b'{' => {
                    if let Some((name, sig_start, 0)) = pending.take() {
                        open.push((name, sig_start, ln, depth));
                    }
                    depth += 1;
                }
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if open.last().is_some_and(|&(_, _, _, d)| d == depth) {
                        let (name, sig_start, body_start, _) =
                            open.pop().expect("checked non-empty");
                        spans.push(FnSpan {
                            name,
                            sig_start,
                            body_start,
                            body_end: ln,
                        });
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    spans
}

/// Per-line flag: inside a `#[cfg(test)] mod … { … }` region. The
/// attribute arms a pending marker; the next `mod` keyword (attributes
/// and blank lines may intervene) binds it to that module's brace span.
/// A `#[cfg(test)]` that gates anything other than an inline `mod` (a
/// lone fn, a `mod foo;` file module) is dropped, not tracked.
pub fn test_regions(lines: &[Line]) -> Vec<bool> {
    let mut in_test = vec![false; lines.len()];
    let mut depth = 0usize;
    let mut cfg_pending = false;
    let mut mod_pending = false;
    // Depths at which test mods opened (nested test mods stack).
    let mut regions: Vec<usize> = Vec::new();
    for (ln, line) in lines.iter().enumerate() {
        let code = &line.code;
        let test_at_start = !regions.is_empty();
        if code.contains("#[cfg(test)]") {
            cfg_pending = true;
        }
        if cfg_pending && !find_word(code, "mod").is_empty() {
            mod_pending = true;
        }
        for &b in code.as_bytes() {
            match b {
                b'{' => {
                    if mod_pending {
                        regions.push(depth);
                        mod_pending = false;
                        cfg_pending = false;
                    }
                    depth += 1;
                }
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if regions.last() == Some(&depth) {
                        regions.pop();
                    }
                }
                b';' if mod_pending => {
                    // `#[cfg(test)] mod foo;` — an out-of-line module;
                    // nothing to bracket here.
                    mod_pending = false;
                    cfg_pending = false;
                }
                _ => {}
            }
        }
        // The attribute only reaches across attribute/blank/comment lines.
        let trimmed = code.trim();
        if cfg_pending
            && !mod_pending
            && !trimmed.is_empty()
            && !trimmed.starts_with("#[")
            && !code.contains("#[cfg(test)]")
        {
            cfg_pending = false;
        }
        in_test[ln] = test_at_start || !regions.is_empty();
    }
    in_test
}

/// Recursively collect `.rs` files under `dir` (skipping `target/`).
pub fn collect_rs(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    collect(
        dir,
        &|path| path.extension().is_some_and(|e| e == "rs"),
        out,
    );
}

/// Recursively collect the files under `dir` that `keep` accepts, skipping
/// build output (`target/`) and git's object store (`.git/`).
pub fn collect(
    dir: &std::path::Path,
    keep: &dyn Fn(&std::path::Path) -> bool,
    out: &mut Vec<std::path::PathBuf>,
) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path
                .file_name()
                .is_some_and(|n| n == "target" || n == ".git")
            {
                continue;
            }
            collect(&path, keep, out);
        } else if keep(&path) {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_blanked_and_comments_preserved() {
        let lines = lex("let s = \"unsafe { }\"; // SAFETY: note\n");
        assert_eq!(lines[0].code, "let s = \"\"; ");
        assert!(lines[0].comment.contains("SAFETY: note"));
    }

    #[test]
    fn raw_and_byte_strings_do_not_desync() {
        // A quote inside a raw string, a byte-string, a raw byte-string and
        // a byte literal holding a quote must all be blanked without the
        // scanner losing track of what is code.
        for src in [
            "let a = r#\"one \" two\"#; let x = 1;",
            "let a = b\"bytes \\\" q\"; let x = 1;",
            "let a = br##\"raw \"# bytes\"##; let x = 1;",
            "let a = b'\"'; let x = 1;",
            "let a = b'\\''; let x = 1;",
        ] {
            let lines = lex(src);
            assert!(lines[0].code.contains("let x = 1;"), "desync on {src:?}");
            assert!(
                !lines[0].code.contains("bytes"),
                "literal leaked on {src:?}"
            );
        }
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let lines = lex("/* outer /* inner */ still comment */ let x = 1;\n");
        assert_eq!(lines[0].code.trim(), "let x = 1;");
        assert!(lines[0].comment.contains("inner"));
    }

    #[test]
    fn fn_spans_track_names_and_bodies() {
        let src = "fn outer(x: [u8; 4]) -> u8 {\n    let f = |y: u8| { y };\n    f(x[0])\n}\n\nimpl T {\n    fn method(&self) {}\n}\n";
        let lines = lex(src);
        let spans = fn_spans(&lines);
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"outer"));
        assert!(names.contains(&"method"));
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        assert_eq!(
            (outer.sig_start, outer.body_start, outer.body_end),
            (0, 0, 3)
        );
    }

    #[test]
    fn fn_pointer_types_and_declarations_are_not_items() {
        let src = "fn real(pick: fn(f64, f64) -> f64) {\n    pick(1.0, 2.0);\n}\ntrait T {\n    fn decl(&self);\n}\n";
        let spans = fn_spans(&lex(src));
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "real");
    }

    #[test]
    fn multiline_signatures_resolve() {
        let src = "pub fn long(\n    a: u32,\n    b: u32,\n) -> u32 {\n    a + b\n}\n";
        let spans = fn_spans(&lex(src));
        assert_eq!(spans.len(), 1);
        assert_eq!(
            (spans[0].sig_start, spans[0].body_start, spans[0].body_end),
            (0, 3, 5)
        );
    }

    #[test]
    fn test_mod_regions_are_marked() {
        let src = "fn lib() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\nfn after() {}\n";
        let lines = lex(src);
        let in_test = test_regions(&lines);
        assert!(!in_test[0], "library fn is not test code");
        assert!(in_test[3] && in_test[5], "mod body is test code");
        assert!(!in_test[7], "code after the mod is not test code");
    }

    #[test]
    fn cfg_test_on_a_lone_fn_does_not_open_a_region() {
        let src = "#[cfg(test)]\nfn helper() {\n    body();\n}\nfn lib() {}\n";
        let in_test = test_regions(&lex(src));
        assert!(in_test.iter().all(|&t| !t));
    }

    #[test]
    fn find_word_is_word_bounded() {
        assert_eq!(find_word("mod tests { mod_helper(); }", "mod"), vec![0]);
        assert!(find_word("unmodified", "mod").is_empty());
    }

    #[test]
    fn enclosing_fn_picks_the_innermost() {
        let src = "fn outer() {\n    fn inner() {\n        x();\n    }\n}\n";
        let file = LexedFile::new(src);
        assert_eq!(file.enclosing_fn(2).expect("inner").name, "inner");
        assert_eq!(file.enclosing_fn(4).expect("outer").name, "outer");
    }
}
