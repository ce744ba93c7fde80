//! Exact scenario gate over scenario reports (`merged.json` from
//! `metaai bench run`, or a committed `BENCH_pr*.json` baseline).
//!
//! Every figure in a scenario's `fixed` subtree — accuracies,
//! realization errors, trigger rounds, verified counts, prediction
//! histograms — is a pure function of the recipe's seed, independent of
//! the host and of the rayon thread count. So [`compare`] admits no
//! tolerance:
//!
//! * every `scenarios.<recipe>.<scenario>` present in either report is
//!   checked, and one missing on either side (or one that errored, and
//!   so has no `fixed` subtree) fails;
//! * its `fixed` subtree must equal the baseline's: the same leaves, the
//!   same numbers, the same strings. A gain fails as surely as a drop —
//!   either means the computation changed;
//! * the `timing` subtree and everything outside `scenarios` (host
//!   counts, old perf sections) are never read.
//!
//! Timing is measured by perfbench (`perfbench/`, pairs of runs against
//! the parent commit), never by this gate.
//!
//! The JSON reader below is a minimal recursive-descent parser for the
//! reports we generate ourselves (the workspace builds offline, with no
//! serde); it handles the full JSON grammar but is not meant as a
//! general-purpose library. The scenario harness renders its results
//! with [`Json::render`].

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered key/value pairs (duplicate keys keep the last).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for non-objects/missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Renders the tree as pretty-printed JSON with a trailing newline.
    ///
    /// The output is deterministic: objects keep insertion order, numbers
    /// use Rust's shortest-round-trip `Display` (non-finite values become
    /// `null`), and indentation is two spaces. The scenario runner relies
    /// on this to make "same seed ⇒ byte-identical result file" a
    /// testable contract.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    out.push_str(&format!("{n}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a complete JSON document (trailing whitespace allowed).
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {}, found {:?}",
            c as char,
            *pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes.get(*pos..*pos + 4).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape \\{}", *other as char)),
                }
            }
            Some(_) => {
                // Copy one UTF-8 scalar (the input came from a &str, so
                // the byte sequence is valid).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        pairs.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// Flattens a JSON tree to `dotted.path -> value` for every numeric leaf,
/// with array elements addressed by index.
pub fn flatten(value: &Json) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    fn walk(prefix: &str, v: &Json, out: &mut BTreeMap<String, f64>) {
        match v {
            Json::Num(n) => {
                out.insert(prefix.to_string(), *n);
            }
            Json::Obj(pairs) => {
                for (k, child) in pairs {
                    let path = if prefix.is_empty() {
                        k.clone()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    walk(&path, child, out);
                }
            }
            Json::Arr(items) => {
                for (i, child) in items.iter().enumerate() {
                    walk(&format!("{prefix}.{i}"), child, out);
                }
            }
            _ => {}
        }
    }
    walk("", value, &mut out);
    out
}

/// The result of gating a fresh report against a baseline.
#[derive(Debug, Default)]
pub struct GateReport {
    /// Hard failures, one per scenario; non-empty ⇒ exit 1.
    pub failures: Vec<String>,
    /// Number of scenarios compared.
    pub checked: usize,
}

impl GateReport {
    /// Whether the gate passed: at least one scenario compared, and no
    /// failure.
    pub fn passed(&self) -> bool {
        self.failures.is_empty() && self.checked > 0
    }
}

/// The `(recipe, scenario)` pairs under a report's `scenarios` object,
/// in document order.
fn scenario_names(report: &Json) -> Vec<(String, String)> {
    let Some(Json::Obj(recipes)) = report.get("scenarios") else {
        return Vec::new();
    };
    let mut names = Vec::new();
    for (recipe, body) in recipes {
        if let Json::Obj(scenarios) = body {
            names.extend(scenarios.iter().map(|(s, _)| (recipe.clone(), s.clone())));
        }
    }
    names
}

/// The `fixed` subtree of one scenario, if the report has it.
fn fixed<'a>(report: &'a Json, recipe: &str, scenario: &str) -> Option<&'a Json> {
    report
        .get("scenarios")?
        .get(recipe)?
        .get(scenario)?
        .get("fixed")
}

/// A one-line rendering of a value for a failure message.
fn describe(value: Option<&Json>) -> String {
    match value {
        None => "missing".to_string(),
        Some(Json::Obj(_)) => "an object".to_string(),
        Some(Json::Arr(items)) => format!("an array of {}", items.len()),
        Some(leaf) => leaf.render().trim_end().to_string(),
    }
}

fn mismatch(path: &str, base: Option<&Json>, fresh: Option<&Json>) -> String {
    format!(
        "{path}: baseline {}, fresh {}",
        describe(base),
        describe(fresh)
    )
}

/// The first flattened path (depth first, baseline key order) at which
/// `base` and `fresh` differ, with both values; `None` when they are
/// equal.
fn first_difference(path: &str, base: &Json, fresh: &Json) -> Option<String> {
    let child = |key: &str, b: Option<&Json>, f: Option<&Json>| {
        let path = format!("{path}.{key}");
        match (b, f) {
            (Some(b), Some(f)) => first_difference(&path, b, f),
            (b, f) => Some(mismatch(&path, b, f)),
        }
    };
    match (base, fresh) {
        (Json::Obj(b), Json::Obj(f)) => {
            let mut seen = Vec::new();
            for (key, _) in b.iter().chain(f) {
                if seen.contains(&key) {
                    continue;
                }
                seen.push(key);
                if let Some(diff) = child(key, base.get(key), fresh.get(key)) {
                    return Some(diff);
                }
            }
            None
        }
        (Json::Arr(b), Json::Arr(f)) => {
            (0..b.len().max(f.len())).find_map(|i| child(&i.to_string(), b.get(i), f.get(i)))
        }
        _ if base == fresh => None,
        _ => Some(mismatch(path, Some(base), Some(fresh))),
    }
}

/// Gates a fresh report against the committed baseline: every scenario
/// in either report must be in both, with identical `fixed` subtrees.
pub fn compare(baseline: &Json, fresh: &Json) -> GateReport {
    let mut report = GateReport::default();
    let mut names = Vec::new();
    for name in scenario_names(baseline)
        .into_iter()
        .chain(scenario_names(fresh))
    {
        if !names.contains(&name) {
            names.push(name);
        }
    }
    for (recipe, scenario) in &names {
        report.checked += 1;
        let path = format!("scenarios.{recipe}.{scenario}.fixed");
        let diff = match (
            fixed(baseline, recipe, scenario),
            fixed(fresh, recipe, scenario),
        ) {
            (Some(b), Some(f)) => first_difference(&path, b, f),
            (b, f) => Some(mismatch(&path, b, f)),
        };
        report.failures.extend(diff);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
      "cores": 4,
      "scenarios": {
        "r": {
          "s": {
            "seed": 7,
            "fixed": { "accuracy": { "ota": 0.5 }, "clean_verified": 24, "rounds": [2, 4],
                       "mode": "shed" },
            "timing": { "samples_per_sec": 1000.0 }
          },
          "t": { "seed": 7, "fixed": { "n": 1 }, "timing": {} }
        }
      }
    }"#;

    fn gate(fresh: &str) -> GateReport {
        compare(&parse(BASE).expect("parse"), &parse(fresh).expect("parse"))
    }

    fn fails_at(fresh: &str, expected: &str) {
        let r = gate(fresh);
        assert!(!r.passed(), "must fail: {fresh}");
        assert_eq!(r.failures, vec![expected.to_string()]);
    }

    #[test]
    fn parser_handles_strings_arrays_and_literals() {
        let v = parse(r#"{"a": [1, -2.5, "s\n", true, false, null], "b": {}}"#).expect("parse");
        let Some(Json::Arr(items)) = v.get("a") else {
            panic!("a must be an array")
        };
        assert_eq!(items.len(), 6);
        assert_eq!(items[1], Json::Num(-2.5));
        assert_eq!(items[2], Json::Str("s\n".to_string()));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn render_round_trips_through_the_parser() {
        let v = parse(r#"{"a": [1, -2.5, "s\n\"x\"", true, false, null], "b": {}, "c": []}"#)
            .expect("parse");
        let rendered = v.render();
        assert_eq!(parse(&rendered).expect("reparse"), v);
        // Deterministic: rendering twice is byte-identical.
        assert_eq!(v.render(), rendered);
    }

    #[test]
    fn identical_reports_pass() {
        let r = gate(BASE);
        assert!(r.passed(), "failures: {:?}", r.failures);
        assert_eq!(r.checked, 2);
    }

    #[test]
    fn timing_and_top_level_keys_are_never_read() {
        let fresh = BASE
            .replace("1000.0", "1.0")
            .replace("\"cores\": 4", "\"cores\": 64");
        assert!(gate(&fresh).passed());
    }

    #[test]
    fn any_change_to_a_fixed_leaf_fails_naming_the_path() {
        fails_at(
            &BASE.replace("24", "23"),
            "scenarios.r.s.fixed.clean_verified: baseline 24, fresh 23",
        );
        fails_at(
            &BASE.replace("\"shed\"", "\"block\""),
            "scenarios.r.s.fixed.mode: baseline \"shed\", fresh \"block\"",
        );
        fails_at(
            &BASE.replace("[2, 4]", "[2, 4, 6]"),
            "scenarios.r.s.fixed.rounds.2: baseline missing, fresh 6",
        );
    }

    #[test]
    fn an_accuracy_gain_fails_like_a_drop() {
        fails_at(
            &BASE.replace("0.5", "0.75"),
            "scenarios.r.s.fixed.accuracy.ota: baseline 0.5, fresh 0.75",
        );
    }

    #[test]
    fn leaves_added_or_removed_fail() {
        fails_at(
            &BASE.replace("\"n\": 1", "\"n\": 1, \"m\": 2"),
            "scenarios.r.t.fixed.m: baseline missing, fresh 2",
        );
        fails_at(
            &BASE.replace("\"accuracy\": { \"ota\": 0.5 }, ", ""),
            "scenarios.r.s.fixed.accuracy: baseline an object, fresh missing",
        );
    }

    #[test]
    fn a_missing_or_errored_scenario_fails_on_either_side() {
        let without_t = BASE.replace(
            r#""t": { "seed": 7, "fixed": { "n": 1 }, "timing": {} }"#,
            r#""u": { "error": "boom" }"#,
        );
        let r = gate(&without_t);
        assert_eq!(
            r.failures,
            vec![
                "scenarios.r.t.fixed: baseline an object, fresh missing".to_string(),
                "scenarios.r.u.fixed: baseline missing, fresh missing".to_string(),
            ]
        );
        assert_eq!(r.checked, 3);
    }

    #[test]
    fn a_report_without_scenarios_never_passes() {
        let empty = parse("{}").expect("parse");
        assert!(!compare(&empty, &empty).passed());
    }

    #[test]
    fn the_committed_baseline_gates_exactly() {
        let baseline = parse(include_str!("../../../BENCH_scenarios.json")).expect("parse");
        let r = compare(&baseline, &baseline);
        assert!(r.passed(), "failures: {:?}", r.failures);
        assert_eq!(r.checked, 8);
        // A non-accuracy leaf moved by one fails.
        let text = include_str!("../../../BENCH_scenarios.json").replacen(
            "\"clean_verified\": 24",
            "\"clean_verified\": 23",
            1,
        );
        let r = compare(&baseline, &parse(&text).expect("parse"));
        assert_eq!(
            r.failures,
            vec![
                "scenarios.serve-chaos.serve-chaos.fixed.clean_verified: baseline 24, fresh 23"
                    .to_string()
            ]
        );
    }
}
