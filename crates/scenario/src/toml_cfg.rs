//! A pragmatic TOML-subset parser producing [`serde::Value`] trees, so
//! scenario and sweep specs can be written in the friendlier TOML syntax.
//!
//! Supported: `key = value` pairs, dotted `[table.headers]`,
//! `[[arrays.of.tables]]`, strings, integers, floats, booleans, arrays and
//! inline tables (`{ k = v, ... }`), plus `#` comments. Unsupported TOML
//! (dates, multi-line strings, dotted keys in assignments) is rejected with
//! a line-numbered error, and so is array/inline-table nesting deeper than
//! [`MAX_DEPTH`].

use serde::{Error, Value};

use crate::json::MAX_DEPTH;

/// Parses a TOML-subset document into a map [`Value`].
///
/// # Errors
///
/// Returns a line-numbered [`Error`] for anything outside the subset.
pub fn parse_toml(input: &str) -> Result<Value, Error> {
    let mut root = Value::Map(Vec::new());
    // Path of the currently open table.
    let mut current: Vec<String> = Vec::new();

    for (lineno, raw) in input.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let at = |msg: &str| Error::new(format!("TOML line {}: {msg}", lineno + 1));

        if let Some(header) = line.strip_prefix("[[") {
            let header = header
                .strip_suffix("]]")
                .ok_or_else(|| at("unterminated [[table]] header"))?;
            let path = split_path(header);
            push_array_table(&mut root, &path).map_err(|e| at(&e))?;
            current = path;
        } else if let Some(header) = line.strip_prefix('[') {
            let header = header
                .strip_suffix(']')
                .ok_or_else(|| at("unterminated [table] header"))?;
            let path = split_path(header);
            ensure_table(&mut root, &path).map_err(|e| at(&e))?;
            current = path;
        } else if let Some(eq) = line.find('=') {
            let key = line[..eq].trim();
            if key.is_empty() || key.contains('.') {
                return Err(at("expected a plain (undotted) key"));
            }
            let key = key.trim_matches('"').to_owned();
            let (value, rest) = parse_value(line[eq + 1..].trim(), 0).map_err(|e| at(&e))?;
            if !rest.trim().is_empty() {
                return Err(at(&format!("trailing characters `{rest}`")));
            }
            let table = open_table(&mut root, &current).map_err(|e| at(&e))?;
            if let Value::Map(entries) = table {
                if entries.iter().any(|(k, _)| *k == key) {
                    return Err(at(&format!("duplicate key `{key}`")));
                }
                entries.push((key, value));
            }
        } else {
            return Err(at("expected `key = value` or a [table] header"));
        }
    }
    Ok(root)
}

fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn split_path(header: &str) -> Vec<String> {
    header
        .split('.')
        .map(|s| s.trim().trim_matches('"').to_owned())
        .collect()
}

/// Walks (creating as needed) to the table at `path`; the last element of an
/// array-of-tables is entered when encountered.
fn open_table<'a>(root: &'a mut Value, path: &[String]) -> Result<&'a mut Value, String> {
    let mut cur = root;
    for seg in path {
        // Split the borrow: find the index first, then re-borrow.
        let entries = match cur {
            Value::Map(entries) => entries,
            Value::Seq(items) => {
                let last = items
                    .last_mut()
                    .ok_or_else(|| format!("empty array of tables at `{seg}`"))?;
                match last {
                    Value::Map(entries) => entries,
                    _ => return Err(format!("`{seg}` is not a table")),
                }
            }
            _ => return Err(format!("`{seg}` is not a table")),
        };
        let idx = match entries.iter().position(|(k, _)| k == seg) {
            Some(i) => i,
            None => {
                entries.push((seg.clone(), Value::Map(Vec::new())));
                entries.len() - 1
            }
        };
        cur = &mut entries[idx].1;
        // Descend into the last element when the segment is an array of
        // tables.
        if let Value::Seq(items) = cur {
            cur = items
                .last_mut()
                .ok_or_else(|| format!("empty array of tables at `{seg}`"))?;
        }
    }
    Ok(cur)
}

fn ensure_table(root: &mut Value, path: &[String]) -> Result<(), String> {
    open_table(root, path).map(|_| ())
}

fn push_array_table(root: &mut Value, path: &[String]) -> Result<(), String> {
    let (last, parent_path) = path
        .split_last()
        .ok_or_else(|| "empty [[table]] path".to_owned())?;
    let parent = open_table(root, parent_path)?;
    let entries = match parent {
        Value::Map(entries) => entries,
        _ => return Err("parent of [[table]] is not a table".to_owned()),
    };
    match entries.iter_mut().find(|(k, _)| k == last) {
        Some((_, Value::Seq(items))) => items.push(Value::Map(Vec::new())),
        Some(_) => return Err(format!("`{last}` is not an array of tables")),
        None => {
            entries.push((last.clone(), Value::Seq(vec![Value::Map(Vec::new())])));
        }
    }
    Ok(())
}

/// Parses one value from the front of `input`, returning the rest.
/// `depth` counts the arrays and inline tables enclosing the value; one
/// more than [`MAX_DEPTH`] is an error, not a stack overflow.
fn parse_value(input: &str, depth: usize) -> Result<(Value, &str), String> {
    let input = input.trim_start();
    if input.starts_with(['[', '{']) && depth == MAX_DEPTH {
        return Err(format!("value nests deeper than {MAX_DEPTH} levels"));
    }
    if let Some(rest) = input.strip_prefix('"') {
        let mut s = String::new();
        let mut chars = rest.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => return Ok((Value::Str(s), &rest[i + 1..])),
                '\\' => match chars.next() {
                    Some((_, 'n')) => s.push('\n'),
                    Some((_, 't')) => s.push('\t'),
                    Some((_, '"')) => s.push('"'),
                    Some((_, '\\')) => s.push('\\'),
                    other => return Err(format!("bad string escape {other:?}")),
                },
                c => s.push(c),
            }
        }
        Err("unterminated string".to_owned())
    } else if let Some(rest) = input.strip_prefix('[') {
        let mut items = Vec::new();
        let mut rest = rest.trim_start();
        if let Some(r) = rest.strip_prefix(']') {
            return Ok((Value::Seq(items), r));
        }
        loop {
            let (v, r) = parse_value(rest, depth + 1)?;
            items.push(v);
            rest = r.trim_start();
            if let Some(r) = rest.strip_prefix(',') {
                rest = r.trim_start();
                // Tolerate a trailing comma before `]`.
                if let Some(r) = rest.strip_prefix(']') {
                    return Ok((Value::Seq(items), r));
                }
            } else if let Some(r) = rest.strip_prefix(']') {
                return Ok((Value::Seq(items), r));
            } else {
                return Err(format!("expected `,` or `]` in array near `{rest}`"));
            }
        }
    } else if let Some(rest) = input.strip_prefix('{') {
        let mut entries = Vec::new();
        let mut rest = rest.trim_start();
        if let Some(r) = rest.strip_prefix('}') {
            return Ok((Value::Map(entries), r));
        }
        loop {
            let eq = rest
                .find('=')
                .ok_or_else(|| format!("expected `key = value` in inline table near `{rest}`"))?;
            let key = rest[..eq].trim().trim_matches('"').to_owned();
            let (v, r) = parse_value(rest[eq + 1..].trim_start(), depth + 1)?;
            entries.push((key, v));
            rest = r.trim_start();
            if let Some(r) = rest.strip_prefix(',') {
                rest = r.trim_start();
            } else if let Some(r) = rest.strip_prefix('}') {
                return Ok((Value::Map(entries), r));
            } else {
                return Err(format!(
                    "expected `,` or `}}` in inline table near `{rest}`"
                ));
            }
        }
    } else if let Some(rest) = input.strip_prefix("true") {
        Ok((Value::Bool(true), rest))
    } else if let Some(rest) = input.strip_prefix("false") {
        Ok((Value::Bool(false), rest))
    } else {
        // Number: consume the numeric token.
        let end = input
            .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E' | '_'))
            .unwrap_or(input.len());
        let token: String = input[..end].chars().filter(|&c| c != '_').collect();
        if token.is_empty() {
            return Err(format!("expected a value near `{input}`"));
        }
        let rest = &input[end..];
        if token.contains(['.', 'e', 'E']) {
            token
                .parse::<f64>()
                .map(|f| (Value::Float(f), rest))
                .map_err(|_| format!("invalid float `{token}`"))
        } else if let Ok(i) = token.parse::<i64>() {
            Ok((Value::Int(i), rest))
        } else {
            // Positive integers above i64::MAX (e.g. u64 seeds).
            token
                .parse::<u64>()
                .map(|u| (Value::UInt(u), rest))
                .map_err(|_| format!("invalid integer `{token}`"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_and_scalars() {
        let v = parse_toml(
            r#"
# top comment
name = "demo"   # inline comment
seed = 42
ratio = 0.5
on = true

[runner]
window = 12
max = [1, 2, 3]

[dataset.field]
noise_std = 0.05
"#,
        )
        .unwrap();
        assert_eq!(v.get("name").unwrap().as_str().unwrap(), "demo");
        assert_eq!(v.get("seed").unwrap().as_i64().unwrap(), 42);
        assert_eq!(v.get("ratio").unwrap().as_f64().unwrap(), 0.5);
        assert!(v.get("on").unwrap().as_bool().unwrap());
        let runner = v.get("runner").unwrap();
        assert_eq!(runner.get("window").unwrap().as_i64().unwrap(), 12);
        assert_eq!(runner.get("max").unwrap().as_seq().unwrap().len(), 3);
        let field = v.get("dataset").unwrap().get("field").unwrap();
        assert_eq!(field.get("noise_std").unwrap().as_f64().unwrap(), 0.05);
    }

    #[test]
    fn parses_inline_tables_and_nested_arrays() {
        let v = parse_toml(
            r#"
policy = { DrCell = { episodes = 3, hidden = 16 } }
grid = [[1, 2], [3, 4]]
"#,
        )
        .unwrap();
        let pol = v.get("policy").unwrap().get("DrCell").unwrap();
        assert_eq!(pol.get("episodes").unwrap().as_i64().unwrap(), 3);
        let grid = v.get("grid").unwrap().as_seq().unwrap();
        assert_eq!(grid[1].as_seq().unwrap()[0].as_i64().unwrap(), 3);
    }

    #[test]
    fn parses_arrays_of_tables() {
        let v = parse_toml(
            r#"
[[perturbations.layers]]
SensorDropout = { rate = 0.25 }

[[perturbations.layers]]
MissingCycleBursts = { bursts = 2, burst_len = 3 }
"#,
        )
        .unwrap();
        let layers = v
            .get("perturbations")
            .unwrap()
            .get("layers")
            .unwrap()
            .as_seq()
            .unwrap();
        assert_eq!(layers.len(), 2);
        assert!(layers[0].get("SensorDropout").is_some());
        assert!(layers[1].get("MissingCycleBursts").is_some());
    }

    #[test]
    fn escaped_quote_before_hash_is_not_a_comment() {
        let v = parse_toml(r#"name = "a\"b # c""#).unwrap();
        assert_eq!(v.get("name").unwrap().as_str().unwrap(), "a\"b # c");
    }

    #[test]
    fn rejects_out_of_subset() {
        assert!(parse_toml("a.b = 1").is_err());
        assert!(parse_toml("x = 1979-05-27").is_err());
        assert!(parse_toml("just a line").is_err());
        assert!(parse_toml("k = \"open").is_err());
        assert!(parse_toml("k = 1\nk = 2").is_err());
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let nested = |depth: usize| format!("name = {}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_toml(&nested(MAX_DEPTH)).is_ok());
        assert!(parse_toml(&nested(MAX_DEPTH + 1)).is_err());
        assert!(parse_toml(&format!("name = {}", "[".repeat(100_000))).is_err());
        assert!(parse_toml(&format!("name = {}", "{a = ".repeat(100_000))).is_err());
    }
}
