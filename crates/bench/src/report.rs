//! The one data path of the E-suite (DESIGN.md §6).
//!
//! An experiment declares its columns once — table header, JSON key, and
//! the number format on each side — pushes each row once, and returns a
//! [`Report`]. [`Report::render`] is the text `repro` prints (the tables
//! EXPERIMENTS.md records and `tests/golden/` pins); [`Report::to_json`]
//! is the `BENCH_PR*.json` artefact. [`Report::from_json`] reads an
//! artefact back through [`Json::parse`], the workspace's only JSON
//! parser, so a gate judges a fresh run and a committed file through the
//! same accessors and sees exactly the digits the artefact records.

use cvc_reduce::registry::MetricsRegistry;
use std::fmt::Write as _;

/// A JSON value as the artefacts hold it: objects keep their key order and
/// numbers keep their source text, so what was read is written back byte
/// for byte.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what a non-finite float is written as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as the token it was formatted or parsed as.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

static NULL: Json = Json::Null;

fn member<'a>(fields: &'a [(String, Json)], key: &str) -> &'a Json {
    let hit = fields.iter().find(|(k, _)| k == key);
    hit.map_or(&NULL, |(_, v)| v)
}

/// The readers are total: a missing key or a value of the wrong kind reads
/// as `null` / NaN / `false` / `""`, which fails whatever a gate requires
/// of it — so a gate never panics on a malformed artefact.
impl Json {
    /// The member `key` (`null` when absent, or when this is no object).
    pub fn get(&self, key: &str) -> &Json {
        member(self.fields(), key)
    }

    /// True when the member `key` is present and not `null`.
    pub fn has(&self, key: &str) -> bool {
        *self.get(key) != Json::Null
    }

    /// An object's members, in order.
    pub fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(f) => f,
            _ => &[],
        }
    }

    /// An array's elements.
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => &[],
        }
    }

    /// This value as a number (NaN when it is not one).
    pub fn as_num(&self) -> f64 {
        match self {
            Json::Num(t) => t.parse().unwrap_or(f64::NAN),
            _ => f64::NAN,
        }
    }

    /// This value as a string (`""` when it is not one).
    pub fn as_text(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => "",
        }
    }

    /// The number at `key` (NaN when absent).
    pub fn num(&self, key: &str) -> f64 {
        self.get(key).as_num()
    }

    /// True only when `key` holds `true`.
    pub fn flag(&self, key: &str) -> bool {
        *self.get(key) == Json::Bool(true)
    }

    /// The string at `key` (`""` when absent).
    pub fn text(&self, key: &str) -> &str {
        self.get(key).as_text()
    }

    /// Parse one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value(0)?;
        p.ws();
        if p.i < p.s.len() {
            return Err(p.err("trailing text"));
        }
        Ok(v)
    }

    /// Serialise on one line: `", "` / `": "` separators as the artefacts'
    /// rows carry them, or none at all (`compact`, the registry's style).
    fn write(&self, out: &mut String, compact: bool) {
        let (comma, colon) = if compact { (",", ":") } else { (", ", ": ") };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(t) => out.push_str(t),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(comma);
                    }
                    v.write(out, compact);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(comma);
                    }
                    write_str(out, k);
                    out.push_str(colon);
                    v.write(out, compact);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting bound: artefacts nest four deep; a hostile file must not be
/// able to overflow the parser's stack.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn ws(&mut self) {
        while matches!(self.s.get(self.i), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.s.get(self.i) == Some(&b);
        self.i += hit as usize;
        hit
    }

    fn next(&mut self) -> Result<u8, String> {
        let b = self.s.get(self.i).ok_or_else(|| self.err("cut short"))?;
        self.i += 1;
        Ok(*b)
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if !self.s[self.i..].starts_with(word.as_bytes()) {
            return Err(self.err("unknown literal"));
        }
        self.i += word.len();
        Ok(v)
    }

    /// A comma-separated run up to `close`, one `item` call per element.
    fn sequence(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.i += 1;
        self.ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            self.ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or a closing bracket"));
            }
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nested too deeply"));
        }
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                let mut fields = Vec::new();
                self.sequence(b'}', |p| {
                    p.ws();
                    let key = p.string()?;
                    p.ws();
                    if !p.eat(b':') {
                        return Err(p.err("expected ':'"));
                    }
                    fields.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.sequence(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// A number keeps its source text; `f64`'s own parser is the judge of
    /// it (so `1.` and `01` pass, which JSON proper would refuse).
    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while matches!(
            self.s.get(self.i),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.i += 1;
        }
        let token = String::from_utf8_lossy(&self.s[start..self.i]).into_owned();
        match token.parse::<f64>() {
            Ok(_) => Ok(Json::Num(token)),
            Err(_) => Err(self.err("malformed number")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return Err(self.err("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            match self.next()? {
                b'"' => break,
                b'\\' => {
                    let c = match self.next()? {
                        e @ (b'"' | b'\\' | b'/') => e as char,
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.err("unknown escape")),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                0..=0x1f => return Err(self.err("raw control character in a string")),
                b => out.push(b),
            }
        }
        // The input was a `&str` and every escape appended whole UTF-8.
        String::from_utf8(out).map_err(|_| self.err("string is not UTF-8"))
    }

    /// The four hex digits after `\u` (the writer only emits these for
    /// control characters, so surrogate pairs are refused, not combined).
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hex = self
            .s
            .get(self.i..self.i + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.i += 4;
        char::from_u32(hex).ok_or_else(|| self.err("\\u escape is a surrogate"))
    }
}

/// One measured value, before either side formats it.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A count.
    Int(u64),
    /// A measurement.
    Num(f64),
    /// A verdict.
    Flag(bool),
    /// A label.
    Text(String),
    /// A nested object (JSON side only), e.g. E18's per-stage shares.
    Map(Vec<(String, Value)>),
}

/// Anything a cell can hold.
pub trait Measured {
    /// The value to format.
    fn value(&self) -> Value;
}

macro_rules! measured {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl Measured for $t {
            fn value(&self) -> Value {
                let $v = self;
                $e
            }
        }
    )*};
}
measured! {
    u64 => |v| Value::Int(*v),
    u32 => |v| Value::Int(u64::from(*v)),
    usize => |v| Value::Int(*v as u64),
    f64 => |v| Value::Num(*v),
    bool => |v| Value::Flag(*v),
    &str => |v| Value::Text(v.to_string()),
    String => |v| Value::Text(v.clone()),
    Value => |v| v.clone(),
}

/// How a number is shown. Only `Plain` and `Fixed` make JSON numbers.
#[derive(Debug, Clone, Copy)]
pub enum Fmt {
    /// `Display`: integers, flags and labels as they are, floats as `{}`.
    Plain,
    /// `{:.p}`.
    Fixed(usize),
    /// A fraction as a percentage: `{:.p}%` of `100 × v`.
    Pct(usize),
    /// A ratio: `{:.p}x`.
    Times(usize),
}

impl Fmt {
    /// The table cell. A format only applies to floats; every other value
    /// (an `Int`, or a `"-"` standing in for a number) shows as it is.
    fn text(self, v: &Value) -> String {
        match (self, v) {
            (Fmt::Fixed(p), Value::Num(x)) => format!("{x:.p$}"),
            (Fmt::Pct(p), Value::Num(x)) => format!("{:.p$}%", 100.0 * x),
            (Fmt::Times(p), Value::Num(x)) => format!("{x:.p$}x"),
            (Fmt::Plain, Value::Num(x)) => x.to_string(),
            (_, Value::Int(n)) => n.to_string(),
            (_, Value::Flag(b)) => b.to_string(),
            (_, Value::Text(s)) => s.clone(),
            (_, Value::Map(_)) => String::new(),
        }
    }

    /// The JSON value (the format reaches the leaves of a `Map`).
    fn json(self, v: &Value) -> Json {
        match v {
            Value::Num(x) if !x.is_finite() => Json::Null,
            Value::Int(_) | Value::Num(_) => Json::Num(self.text(v)),
            Value::Flag(b) => Json::Bool(*b),
            Value::Text(s) => Json::Str(s.clone()),
            Value::Map(fields) => Json::Obj(
                fields
                    .iter()
                    .map(|(k, v)| (k.clone(), self.json(v)))
                    .collect(),
            ),
        }
    }
}

/// One column of one row — or one field of the artefact's head: where the
/// value shows (table `header`, JSON `key`; `""` = not on that side), how
/// each side formats it, and the value itself. An experiment's schema is
/// the list of cells it builds a row from: declared once, pushed once.
#[derive(Debug, Clone)]
pub struct Cell {
    header: &'static str,
    key: &'static str,
    text: Fmt,
    json: Fmt,
    value: Value,
}

/// A cell on both sides, shown as it is.
pub fn cell(header: &'static str, key: &'static str, v: &dyn Measured) -> Cell {
    Cell {
        header,
        key,
        text: Fmt::Plain,
        json: Fmt::Plain,
        value: v.value(),
    }
}

/// A measurement on both sides: `{:.text}` in the table, `{:.json}` in the
/// artefact.
pub fn float(header: &'static str, key: &'static str, v: f64, text: usize, json: usize) -> Cell {
    cell(header, key, &v)
        .text(Fmt::Fixed(text))
        .json(Fmt::Fixed(json))
}

/// A cell of the table only.
pub fn shown(header: &'static str, v: &dyn Measured) -> Cell {
    cell(header, "", v)
}

/// A cell of the artefact only.
pub fn kept(key: &'static str, v: &dyn Measured) -> Cell {
    cell("", key, v)
}

impl Cell {
    /// Set the table format.
    pub fn text(mut self, f: Fmt) -> Cell {
        self.text = f;
        self
    }

    /// Set the artefact format.
    pub fn json(mut self, f: Fmt) -> Cell {
        self.json = f;
        self
    }

    fn field(&self) -> (String, Json) {
        (self.key.to_string(), self.json.json(&self.value))
    }
}

/// A JSON object of the cells' artefact side, for the few head fields
/// that are objects themselves.
pub fn object(cells: impl IntoIterator<Item = Cell>) -> Json {
    Json::Obj(cells.into_iter().map(|c| c.field()).collect())
}

/// What an experiment returns: a title, one table, the lines around it,
/// and — for the experiments that write one — the artefact's fields in the
/// order they will be written.
#[derive(Debug, Clone, Default)]
pub struct Report {
    title: String,
    intro: Vec<String>,
    headers: Vec<&'static str>,
    cells: Vec<Vec<String>>,
    notes: Vec<String>,
    /// What the experiment's gate found wrong; each prints as a `FAILED:`
    /// line and fails the run.
    pub failed: Vec<String>,
    top: Vec<(String, Json)>,
}

impl Report {
    /// An empty report.
    pub fn new(title: impl Into<String>) -> Report {
        Report {
            title: title.into(),
            ..Report::default()
        }
    }

    /// Open the artefact: its `experiment` name, the descriptive strings
    /// (`baseline`, `candidate`, `transport`), and the build profile.
    /// Everything after — [`Report::set`], rows, [`Report::metrics`] — is
    /// written in call order.
    pub fn artifact(mut self, experiment: &str, described: &[(&'static str, &str)]) -> Report {
        self.set(kept("experiment", &experiment));
        for (k, v) in described {
            self.set(kept(k, v));
        }
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        self.set(kept("profile", &profile));
        self
    }

    /// Append a top-level field: the cell's artefact side.
    pub fn set(&mut self, field: Cell) {
        self.top.push(field.field());
    }

    /// Append a top-level field that is already JSON (see [`object`]).
    pub fn set_json(&mut self, key: &str, v: Json) {
        self.top.push((key.to_string(), v));
    }

    /// Embed the registry snapshot as `metrics`.
    pub fn metrics(&mut self, registry: &MetricsRegistry) {
        let snapshot = Json::parse(&registry.to_json()).expect("the registry writes JSON");
        self.set_json("metrics", snapshot);
    }

    /// Record the machine's parallelism right after `profile` — only on
    /// wall-clock reports, so virtual-time artefacts stay
    /// machine-independent.
    pub fn stamp_cores(&mut self, cores: usize) {
        if let Some(at) = self.top.iter().position(|(k, _)| k == "profile") {
            let cores = Json::Num(cores.to_string());
            self.top.insert(at + 1, ("cores".to_string(), cores));
        }
    }

    /// Push one row. The first row's headers are the table's; every later
    /// row must bring the same ones.
    pub fn row(&mut self, cells: impl IntoIterator<Item = Cell>) {
        let (mut headers, mut texts, mut fields) = (Vec::new(), Vec::new(), Vec::new());
        for c in cells {
            if !c.header.is_empty() {
                headers.push(c.header);
                texts.push(c.text.text(&c.value));
            }
            if !c.key.is_empty() {
                fields.push(c.field());
            }
        }
        if self.cells.is_empty() {
            self.headers = headers;
        } else {
            assert_eq!(self.headers, headers, "a row with different columns");
        }
        self.cells.push(texts);
        if fields.is_empty() {
            return;
        }
        let at = self.top.iter().position(|(k, _)| k == "rows");
        let at = at.unwrap_or_else(|| {
            self.set_json("rows", Json::Arr(Vec::new()));
            self.top.len() - 1
        });
        if let Json::Arr(rows) = &mut self.top[at].1 {
            rows.push(Json::Obj(fields));
        }
    }

    /// A line before the table.
    pub fn intro(&mut self, line: impl Into<String>) {
        self.intro.push(line.into());
    }

    /// A line after the table.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// A line after the table, set off by a blank line.
    pub fn para(&mut self, line: impl Into<String>) {
        self.notes.push(format!("\n{}", line.into()));
    }

    /// The top-level field `key` (`null` when absent).
    pub fn top(&self, key: &str) -> &Json {
        member(&self.top, key)
    }

    /// The rows, each knowing its index.
    pub fn rows(&self) -> impl Iterator<Item = Row<'_>> {
        let rows = self.top("rows").items().iter().enumerate();
        rows.map(|(index, json)| Row { index, json })
    }

    /// The first row whose `keys` hold exactly these numbers (`null` when
    /// there is none, so whatever is read off it is NaN).
    pub fn find(&self, keys: &[(&str, f64)]) -> &Json {
        self.top("rows")
            .items()
            .iter()
            .find(|r| keys.iter().all(|(k, v)| r.num(k) == *v))
            .unwrap_or(&NULL)
    }

    /// The text `repro` prints.
    pub fn render(&self) -> String {
        let mut out = format!("{}\n\n", self.title);
        for line in &self.intro {
            let _ = writeln!(out, "{line}");
        }
        if !self.headers.is_empty() {
            if !self.intro.is_empty() {
                out.push('\n');
            }
            self.render_table(&mut out);
        }
        for line in &self.notes {
            let _ = writeln!(out, "{line}");
        }
        for (i, f) in self.failed.iter().enumerate() {
            let _ = writeln!(out, "{}FAILED: {f}", if i == 0 { "\n" } else { "" });
        }
        out
    }

    /// Left-aligned, two spaces between columns, trailing blanks trimmed.
    fn render_table(&self, out: &mut String) {
        fn line<S: AsRef<str>>(cells: &[S], widths: &[usize]) -> String {
            let mut l = String::new();
            for (c, w) in cells.iter().zip(widths) {
                let pad = w - c.as_ref().chars().count();
                let _ = write!(l, "{}{}  ", c.as_ref(), " ".repeat(pad));
            }
            format!("{}\n", l.trim_end())
        }
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.cells {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.chars().count());
            }
        }
        out.push_str(&line(&self.headers, &widths));
        let total = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.cells {
            out.push_str(&line(row, &widths));
        }
    }

    /// The artefact: one top-level field per line, one row per line, the
    /// registry snapshot compact — the layout every committed
    /// `BENCH_PR*.json` already has.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (k, v)) in self.top.iter().enumerate() {
            out.push_str("  ");
            write_str(&mut out, k);
            out.push_str(": ");
            match (k.as_str(), v) {
                ("rows", Json::Arr(rows)) => {
                    out.push_str("[\n");
                    for (j, r) in rows.iter().enumerate() {
                        out.push_str("    ");
                        r.write(&mut out, false);
                        out.push_str(if j + 1 < rows.len() { ",\n" } else { "\n" });
                    }
                    out.push_str("  ]");
                }
                _ => v.write(&mut out, k == "metrics"),
            }
            out.push_str(if i + 1 < self.top.len() { ",\n" } else { "\n" });
        }
        out.push_str("}\n");
        out
    }

    /// Read an artefact back. Only the JSON side exists on the result:
    /// it can be gated and re-serialised, not rendered as a table.
    pub fn from_json(text: &str) -> Result<Report, String> {
        match Json::parse(text)? {
            Json::Obj(top) => Ok(Report {
                top,
                ..Report::default()
            }),
            _ => Err("an artefact is a JSON object".to_string()),
        }
    }
}

/// One row of a report's JSON side.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    index: usize,
    json: &'a Json,
}

impl std::ops::Deref for Row<'_> {
    type Target = Json;
    fn deref(&self) -> &Json {
        self.json
    }
}

/// `row 3 (n=16 loss=0.01 ops=192)`: the index and the leading fields,
/// which in every schema are the sweep coordinates.
impl std::fmt::Display for Row<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "row {} (", self.index)?;
        for (i, (k, v)) in self.json.fields().iter().take(3).enumerate() {
            let mut shown = String::new();
            v.write(&mut shown, false);
            write!(f, "{}{k}={shown}", if i > 0 { " " } else { "" })?;
        }
        write!(f, ")")
    }
}

/// What a gate found wrong. A gate states each requirement positively;
/// whatever does not hold (NaN from a missing field included) is a finding
/// that names its row.
#[derive(Debug, Default)]
pub struct Findings(pub Vec<String>);

impl Findings {
    /// Require `ok` of one row.
    pub fn row(&mut self, row: &Row<'_>, ok: bool, gate: &str) {
        self.all(ok, &format!("{row}: {gate}"));
    }

    /// Require `ok` of the report as a whole.
    pub fn all(&mut self, ok: bool, gate: &str) {
        if !ok {
            self.0.push(gate.to_string());
        }
    }

    /// The report's rows — and the requirement that there are some.
    pub fn rows<'a>(&mut self, report: &'a Report) -> Vec<Row<'a>> {
        let rows: Vec<Row<'a>> = report.rows().collect();
        self.all(!rows.is_empty(), "the artefact has rows");
        rows
    }

    /// Require a row at each of `values` of the sweep coordinate `key`.
    pub fn covers(&mut self, report: &Report, key: &str, values: &[f64]) {
        for &v in values {
            let present = *report.find(&[(key, v)]) != Json::Null;
            self.all(present, &format!("the sweep has a {key}={v} row"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn renders_aligned_columns() {
        let mut r = Report::new("t");
        r.row([shown("n", &2u64), shown("value", &10u64)]);
        r.row([shown("n", &1024u64), shown("value", &3u64)]);
        let s = r.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "t");
        assert_eq!(lines[2], "n     value");
        assert_eq!(lines[3], "-----------");
        assert_eq!(lines[4], "2     10");
        assert_eq!(lines[5], "1024  3");
    }

    #[test]
    #[should_panic(expected = "a row with different columns")]
    fn rejects_ragged_rows() {
        let mut r = Report::new("t");
        r.row([shown("a", &1u64), shown("b", &2u64)]);
        r.row([shown("a", &"only one")]);
    }

    #[test]
    fn one_list_of_cells_feeds_both_sides() {
        let mut r = Report::new("E0 — title").artifact("E0 test", &[("baseline", "b")]);
        r.set(kept("pr3_per_exec_us", &f64::NAN).json(Fmt::Fixed(3)));
        r.row([
            cell("N", "n", &4usize),
            cell("loss", "loss", &0.01).text(Fmt::Pct(1)),
            kept("payload_bytes", &6000u64),
            cell("goodput", "goodput", &0.66667)
                .text(Fmt::Pct(1))
                .json(Fmt::Fixed(4)),
            float("p99 (ms)", "p99_ms", 117.2961, 1, 3),
            shown("on/off", &1.5).text(Fmt::Times(3)),
            cell("converged", "converged", &true),
        ]);
        r.stamp_cores(2);
        r.para("a paragraph");
        r.note("a note");
        r.failed = vec!["first".into(), "second".into()];
        assert_eq!(
            r.render(),
            "E0 — title\n\nN  loss  goodput  p99 (ms)  on/off  converged\n\
             ---------------------------------------------\n\
             4  1.0%  66.7%    117.3     1.500x  true\n\
             \na paragraph\na note\n\nFAILED: first\nFAILED: second\n"
        );
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        assert_eq!(
            r.to_json(),
            format!(
                "{{\n  \"experiment\": \"E0 test\",\n  \"baseline\": \"b\",\n  \
                 \"profile\": \"{profile}\",\n  \"cores\": 2,\n  \"pr3_per_exec_us\": null,\n  \
                 \"rows\": [\n    {{\"n\": 4, \"loss\": 0.01, \"payload_bytes\": 6000, \
                 \"goodput\": 0.6667, \"p99_ms\": 117.296, \"converged\": true}}\n  ]\n}}\n"
            )
        );
        let row = r.rows().next().expect("one row");
        assert_eq!(row.to_string(), "row 0 (n=4 loss=0.01 payload_bytes=6000)");
        assert_eq!(row.num("goodput"), 0.6667);
        assert!(row.num("missing").is_nan() && !row.flag("n"));
        assert_eq!(r.find(&[("n", 4.0)]).num("payload_bytes"), 6000.0);
        assert_eq!(*r.find(&[("n", 5.0)]), Json::Null);
    }

    #[test]
    fn parser_rejects_what_is_not_json() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,]",
            "{\"a\":1,}",
            "01x",
            "\"\\q\"",
            "\"\\ud800\"",
            "\"\\u12\"",
            "nul",
            "1 2",
            "-",
            "1e",
            "1-2",
            "\"a\nb\"",
            "\"open",
            "\"open\\",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).is_err());
        assert_eq!(
            Json::parse(" [ -1.5e+3 , \"\\u00e9\\/\\n\" , null ] "),
            Ok(Json::Arr(vec![
                Json::Num("-1.5e+3".into()),
                Json::Str("é/\n".into()),
                Json::Null
            ]))
        );
    }

    /// Strings needing every escape the writer knows, plus multi-byte text.
    fn awkward_string() -> impl Strategy<Value = String> {
        "[a-c\"\\\\/\n\r\t\u{1}\u{1f} é‖µ{}:,]{0,10}"
    }

    fn leaf() -> impl Strategy<Value = (Fmt, Value)> {
        prop_oneof![
            any::<u64>().prop_map(|n| (Fmt::Plain, Value::Int(n))),
            Just((Fmt::Plain, Value::Int(u64::MAX))),
            (-1e9..1e9f64, 0..6usize).prop_map(|(x, p)| (Fmt::Fixed(p), Value::Num(x))),
            (-1.0..1.0f64).prop_map(|x| (Fmt::Plain, Value::Num(x))),
            Just((Fmt::Fixed(2), Value::Num(f64::NEG_INFINITY))),
            any::<bool>().prop_map(|b| (Fmt::Plain, Value::Flag(b))),
            awkward_string().prop_map(|s| (Fmt::Plain, Value::Text(s))),
            proptest::collection::vec((awkward_string(), -1.0..1.0f64), 0..4).prop_map(|m| {
                let fields = m.into_iter().map(|(k, x)| (k, Value::Num(x))).collect();
                (Fmt::Fixed(4), Value::Map(fields))
            }),
        ]
    }

    proptest! {
        /// Any report survives write → read → write byte for byte: escapes,
        /// `u64::MAX`, negative and fractional floats, nested objects, a
        /// nested registry snapshot, and no rows at all.
        #[test]
        fn artefacts_round_trip_byte_for_byte(
            experiment in awkward_string(),
            head in proptest::collection::vec(leaf(), 0..4),
            schema in proptest::collection::vec(leaf(), 1..6),
            n_rows in 0..4usize,
            counter in any::<u64>(),
            tail in proptest::collection::vec(leaf(), 0..3),
        ) {
            // Keys are `&'static str`, so they come from a fixed pool —
            // awkward ones included.
            const KEYS: [&str; 6] = ["n", "loss", "stage_share", "a\"b\\", "é\n", "rows"];
            let keyed = |cells: &[(Fmt, Value)]| -> Vec<Cell> {
                let cells = cells.iter().zip(KEYS);
                cells.map(|((f, v), k)| kept(k, v).json(*f)).collect()
            };
            let mut r = Report::new("t").artifact(&experiment, &[("baseline", "b\\\"")]);
            for field in keyed(&head) {
                r.set(field);
            }
            for _ in 0..n_rows {
                r.row(keyed(&schema));
            }
            if n_rows == 0 {
                r.set_json("rows", Json::Arr(Vec::new()));
            }
            for (field, key) in keyed(&tail).into_iter().zip(["attach", "gate", "x"]) {
                r.set_json(key, object([field, kept("ok", &true)]));
            }
            let mut reg = MetricsRegistry::new();
            reg.add_counter("a.b", counter);
            reg.set_gauge("g", -0.25);
            reg.record("h_ns", 7);
            r.metrics(&reg);
            r.stamp_cores(2);

            let written = r.to_json();
            let read = Report::from_json(&written);
            prop_assert!(read.is_ok(), "{:?} on {}", read.as_ref().err(), written);
            let read = read.expect("checked");
            prop_assert_eq!(read.to_json(), written);
            // The reader sees the values, not just the bytes.
            prop_assert_eq!(read.top("experiment").as_text(), experiment.as_str());
            prop_assert_eq!(read.rows().count(), n_rows);
            prop_assert_eq!(read.top("metrics").get("counters").num("a.b"), counter as f64);
            prop_assert_eq!(read.top("cores").as_num(), 2.0);
        }
    }
}
