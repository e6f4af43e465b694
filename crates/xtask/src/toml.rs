//! Minimal TOML reader for the checked-in lint manifests (`lint/*.toml`).
//!
//! Same ethos as the mini JSON reader: the workspace vendors no external
//! parsers, and the manifests only need a small, line-oriented subset —
//! `[[name]]` array-of-tables headers, `key = "string"`, `key = 123`,
//! `key = ["a", "b"]` single-line string arrays, and `#` comments.
//! Anything else (dotted keys, inline tables, multi-line values, plain
//! `[table]` headers) is a parse error, on purpose: a manifest that needs
//! more than this should grow the parser consciously.

/// One `key = value` binding inside a table.
pub enum Value {
    /// A `"quoted"` string (supports `\"` and `\\` escapes only).
    Str(String),
    /// An integer.
    Int(i64),
    /// A single-line array of strings.
    Arr(Vec<String>),
}

/// One `[[name]]` table: its name and bindings, in file order.
pub struct Table {
    /// The array-of-tables name (the text between `[[` and `]]`).
    pub name: String,
    /// The line (1-based) of the `[[name]]` header, for diagnostics.
    pub line: usize,
    /// The table's bindings, in file order.
    pub entries: Vec<(String, Value)>,
}

impl Table {
    /// Look up a binding by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A required string binding, or an error naming the table.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        match self.get(key) {
            Some(Value::Str(s)) => Ok(s),
            _ => Err(format!(
                "[[{}]] at line {}: missing string field `{key}`",
                self.name, self.line
            )),
        }
    }

    /// An optional integer binding with a default.
    pub fn int_field_or(&self, key: &str, default: i64) -> Result<i64, String> {
        match self.get(key) {
            Some(Value::Int(n)) => Ok(*n),
            None => Ok(default),
            Some(_) => Err(format!(
                "[[{}]] at line {}: field `{key}` must be an integer",
                self.name, self.line
            )),
        }
    }

    /// A required integer binding.
    pub fn int_field(&self, key: &str) -> Result<i64, String> {
        match self.get(key) {
            Some(Value::Int(n)) => Ok(*n),
            _ => Err(format!(
                "[[{}]] at line {}: missing integer field `{key}`",
                self.name, self.line
            )),
        }
    }

    /// A required string-array binding.
    pub fn arr_field(&self, key: &str) -> Result<&[String], String> {
        match self.get(key) {
            Some(Value::Arr(items)) => Ok(items),
            _ => Err(format!(
                "[[{}]] at line {}: missing string-array field `{key}`",
                self.name, self.line
            )),
        }
    }
}

/// Parse a manifest into its `[[table]]` list.
pub fn parse(text: &str) -> Result<Vec<Table>, String> {
    let mut tables: Vec<Table> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("[[") {
            let name = rest
                .strip_suffix("]]")
                .ok_or_else(|| format!("line {lineno}: malformed [[table]] header"))?
                .trim();
            if name.is_empty() {
                return Err(format!("line {lineno}: empty [[table]] name"));
            }
            tables.push(Table {
                name: name.to_string(),
                line: lineno,
                entries: Vec::new(),
            });
            continue;
        }
        if line.starts_with('[') {
            return Err(format!(
                "line {lineno}: plain [table] headers are not supported; use [[array-of-tables]]"
            ));
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
        let key = key.trim();
        if key.is_empty()
            || !key
                .bytes()
                .all(|b| crate::lexer::is_ident_char(b) || b == b'-')
        {
            return Err(format!("line {lineno}: bad key {key:?}"));
        }
        let value = parse_value(value.trim()).map_err(|e| format!("line {lineno}: {e}"))?;
        let table = tables
            .last_mut()
            .ok_or_else(|| format!("line {lineno}: `key = value` before any [[table]] header"))?;
        if table.entries.iter().any(|(k, _)| k == key) {
            return Err(format!("line {lineno}: duplicate key {key:?}"));
        }
        table.entries.push((key.to_string(), value));
    }
    Ok(tables)
}

/// Strip a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

fn parse_value(text: &str) -> Result<Value, String> {
    if let Some(rest) = text.strip_prefix('"') {
        return Ok(Value::Str(parse_str(rest)?.0));
    }
    if let Some(rest) = text.strip_prefix('[') {
        let inner = rest
            .strip_suffix(']')
            .ok_or("arrays must open and close on one line")?;
        let mut items = Vec::new();
        let mut rest = inner.trim();
        while !rest.is_empty() {
            let body = rest
                .strip_prefix('"')
                .ok_or("arrays may only hold strings")?;
            let (item, consumed) = parse_str(body)?;
            items.push(item);
            rest = rest[1 + consumed..].trim_start();
            if let Some(r) = rest.strip_prefix(',') {
                rest = r.trim_start();
            } else if !rest.is_empty() {
                return Err("expected `,` between array items".into());
            }
        }
        return Ok(Value::Arr(items));
    }
    text.parse::<i64>()
        .map(Value::Int)
        .map_err(|_| format!("unsupported value {text:?} (string, integer or [\"array\"] only)"))
}

/// Parse a string body (after the opening quote); returns the unescaped
/// text and the number of bytes consumed *including* the closing quote.
fn parse_str(body: &str) -> Result<(String, usize), String> {
    let bytes = body.as_bytes();
    let mut out = String::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Ok((out, i + 1)),
            b'\\' => {
                let esc = bytes.get(i + 1).ok_or("dangling escape")?;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    _ => return Err(format!("unsupported escape \\{}", *esc as char)),
                }
                i += 2;
            }
            _ => {
                out.push(body[i..].chars().next().expect("in bounds"));
                i += crate::lexer::utf8_len(bytes[i]);
            }
        }
    }
    Err("unterminated string".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_manifest_subset() {
        let doc = r##"
# comment
[[site]]
file = "crates/hot-core/src/node/mod.rs"   # trailing comment
function = "value"
ordering = "Acquire"
count = 2

[[hot]]
file = "crates/hot-core/src/trie.rs"
functions = ["get", "scan_with", "run_group"]
"##;
        let tables = parse(doc).expect("parses");
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].name, "site");
        assert_eq!(
            tables[0].str_field("file").unwrap(),
            "crates/hot-core/src/node/mod.rs"
        );
        assert_eq!(tables[0].int_field_or("count", 1).unwrap(), 2);
        assert_eq!(tables[1].arr_field("functions").unwrap().len(), 3);
    }

    #[test]
    fn hash_inside_strings_is_not_a_comment() {
        let tables = parse("[[a]]\nwhy = \"issue #42\"\n").expect("parses");
        assert_eq!(tables[0].str_field("why").unwrap(), "issue #42");
    }

    #[test]
    fn rejects_what_it_does_not_support() {
        assert!(parse("[plain]\n").is_err());
        assert!(parse("key = 1\n").is_err(), "binding before any table");
        assert!(parse("[[a]]\nk = 1.5\n").is_err(), "floats unsupported");
        assert!(parse("[[a]]\nk = [1, 2]\n").is_err(), "non-string arrays");
        assert!(
            parse("[[a]]\nk = \"x\"\nk = \"y\"\n").is_err(),
            "duplicate keys"
        );
    }
}
