//! Decode conformance for the serde shim's JSON reader (tier 1).
//!
//! One table, one row per input line: the type the line is decoded into
//! and the outcome it must have — the `{:?}` of the decoded value, `ERR`
//! for a rejected line, or `malformed` for a rejected `bap serve` request
//! line (the stable wire error code its answer carries). The rows pin
//! which lines are accepted and what they decode to:
//!
//! * duplicate members: the first wins for a struct field, the last wins
//!   for a `HashMap`/`BTreeMap` key, and a duplicate only has to be valid
//!   JSON;
//! * a missing member reads as `null`: `Option` gives `None`, `f64`/`f32`
//!   give NaN, `Value` gives `Null`, anything else is an error, and
//!   `#[serde(default)]` gives `Default`;
//! * numbers: integer text reads into `f64`, float text never reads into
//!   an integer, out-of-range and negative integers are errors, and an
//!   integer literal past `i128` is an error anywhere;
//! * unknown members at every level may hold any valid JSON, and are
//!   validated as fully as known ones (nesting limit, surrogates, number
//!   syntax);
//! * externally tagged enums: a unit variant only as a string, any other
//!   variant only as a one-member object;
//! * tuple structs and variants ignore extra elements, `[T; N]` needs the
//!   exact length;
//! * trailing characters are rejected; whitespace between tokens and any
//!   member order are accepted.

// The test types' fields are compared through `{:?}` only.
#![allow(dead_code)]

use std::collections::{BTreeMap, HashMap};
use std::fmt::Debug;

use bankaware::trace::wire::{parse_request_line, WireCurve, WireError};
use serde::{Deserialize, Value};

#[derive(Debug, Deserialize)]
struct Pair {
    a: u32,
    b: Option<String>,
}

#[derive(Debug, Deserialize)]
struct Missing {
    o: Option<u32>,
    f: f64,
    g: f32,
    v: Value,
    #[serde(default)]
    d: Vec<u32>,
}

#[derive(Debug, Deserialize)]
struct Required {
    n: u32,
}

#[derive(Debug, Deserialize)]
struct Tup(u32, String);

#[derive(Debug, Deserialize)]
enum Shape {
    Dot,
    Line(u32, u32),
    Wrap(u32),
    Box { w: u32 },
}

/// The type a row's line is decoded into.
#[derive(Clone, Copy, Debug)]
enum Target {
    /// A `bap serve` request line, through `parse_request_line`.
    Request,
    Curve,
    Pair,
    Missing,
    Required,
    HashMap,
    BTreeMap,
    U8,
    U64,
    I64,
    F64,
    F32,
    Tup,
    Shape,
    Array2,
    Value,
}

fn typed<T: Deserialize + Debug>(line: &str) -> String {
    match serde_json::from_str::<T>(line) {
        Ok(v) => format!("{v:?}"),
        Err(_) => "ERR".to_string(),
    }
}

fn decode(target: Target, line: &str) -> String {
    match target {
        Target::Request => match parse_request_line(line) {
            Ok(req) => format!("{req:?}"),
            Err(err) => {
                assert!(matches!(err, WireError::Malformed(_)), "{line}: {err:?}");
                let resp = err.to_response();
                resp.kind.error_code().expect("typed error").to_string()
            }
        },
        Target::Curve => typed::<WireCurve>(line),
        Target::Pair => typed::<Pair>(line),
        Target::Missing => typed::<Missing>(line),
        Target::Required => typed::<Required>(line),
        // Sorted, so the expected text does not depend on hash order.
        Target::HashMap => match serde_json::from_str::<HashMap<String, u32>>(line) {
            Ok(m) => format!("{:?}", m.into_iter().collect::<BTreeMap<_, _>>()),
            Err(_) => "ERR".to_string(),
        },
        Target::BTreeMap => typed::<BTreeMap<String, u32>>(line),
        Target::U8 => typed::<u8>(line),
        Target::U64 => typed::<u64>(line),
        Target::I64 => typed::<i64>(line),
        Target::F64 => typed::<f64>(line),
        Target::F32 => typed::<f32>(line),
        Target::Tup => typed::<Tup>(line),
        Target::Shape => typed::<Shape>(line),
        Target::Array2 => typed::<[u32; 2]>(line),
        Target::Value => typed::<Value>(line),
    }
}

/// A request line whose top level (nesting level 1) carries an unknown
/// member holding `extra`.
fn unknown_at_top(extra: &str) -> String {
    format!(r#"{{"id":1,"x":{extra},"kind":{{"Plan":{{"session":2}}}}}}"#)
}

/// A request line whose `Plan` payload (nesting level 3) carries an
/// unknown member holding `extra`.
fn unknown_in_payload(extra: &str) -> String {
    format!(r#"{{"id":1,"kind":{{"Plan":{{"session":2,"y":{extra}}}}}}}"#)
}

const PLAN: &str = "WireRequest { id: 1, deadline_ms: None, kind: Plan { session: 2 } }";
const STATS: &str = "WireRequest { id: 1, deadline_ms: None, kind: Stats }";

fn cases() -> Vec<(Target, String, &'static str)> {
    use Target::*;
    // An unknown member holding every kind of value, nested.
    let everything =
        r#"{"y":[1,[2,{"z":"q\"\\\n\/é😀","":{}}],-3.5e-2,1E+3,-0,true,false,null,[]]}"#;
    let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
    let rows: Vec<(Target, &str, &str)> = vec![
        // Duplicate members.
        (Pair, r#"{"a":1,"a":2}"#, r#"Pair { a: 1, b: None }"#),
        (
            Pair,
            r#"{"a":1,"b":"x","b":"y"}"#,
            r#"Pair { a: 1, b: Some("x") }"#,
        ),
        (
            Pair,
            r#"{"a":1,"a":"not a number"}"#,
            r#"Pair { a: 1, b: None }"#,
        ),
        (
            Pair,
            r#"{"a":1,"a":[{"deep":[null]}]}"#,
            r#"Pair { a: 1, b: None }"#,
        ),
        (Pair, r#"{"a":1,"a":"\ud800"}"#, "ERR"),
        (Pair, r#"{"a":"x","a":1}"#, "ERR"),
        (Pair, r#"{"a":7}"#, r#"Pair { a: 7, b: None }"#),
        (Pair, r#"{"a":1,"b":null}"#, r#"Pair { a: 1, b: None }"#),
        (HashMap, r#"{"k":1,"k":2}"#, r#"{"k": 2}"#),
        (BTreeMap, r#"{"k":1,"j":3,"k":2}"#, r#"{"j": 3, "k": 2}"#),
        (BTreeMap, r#"{"k":1,"k":"x"}"#, "ERR"),
        (BTreeMap, r#"[]"#, "ERR"),
        (Request, r#"{"id":1,"id":2,"kind":"Stats"}"#, STATS),
        (Request, r#"{"id":1,"kind":"Stats","kind":"Nope"}"#, STATS),
        // A missing member reads as null.
        (
            Missing,
            r#"{}"#,
            "Missing { o: None, f: NaN, g: NaN, v: Null, d: [] }",
        ),
        (
            Missing,
            r#"{"o":null,"f":null,"g":null,"v":null}"#,
            "Missing { o: None, f: NaN, g: NaN, v: Null, d: [] }",
        ),
        (
            Missing,
            r#"{"o":3,"f":1,"g":0.5,"v":[1,"x"],"d":[4]}"#,
            r#"Missing { o: Some(3), f: 1.0, g: 0.5, v: Array([Int(1), Str("x")]), d: [4] }"#,
        ),
        (Missing, r#"{"d":null}"#, "ERR"),
        (Missing, r#"null"#, "ERR"),
        (
            Curve,
            r#"{"misses":[1.0,null]}"#,
            "WireCurve { accesses: NaN, misses: [1.0, NaN] }",
        ),
        (Curve, r#"{"accesses":2}"#, "ERR"),
        (Required, r#"{}"#, "ERR"),
        (Required, r#"{"n":null}"#, "ERR"),
        (Required, r#"[1]"#, "ERR"),
        (Request, r#"{"kind":"Stats"}"#, "malformed"),
        (
            Request,
            r#"{"id":1,"kind":"Stats","deadline_ms":null}"#,
            STATS,
        ),
        // Numbers.
        (F64, "3", "3.0"),
        (F64, "-0", "0.0"),
        (F64, "-0.0", "-0.0"),
        (F64, "1e3", "1000.0"),
        (F64, "-2.5E-3", "-0.0025"),
        (F64, "1e400", "inf"),
        (
            F64,
            "170141183460469231731687303715884105727",
            "1.7014118346046923e38",
        ),
        (F64, "170141183460469231731687303715884105728", "ERR"),
        (F64, "-170141183460469231731687303715884105729", "ERR"),
        (F64, "null", "NaN"),
        (F64, r#""1""#, "ERR"),
        (F64, "true", "ERR"),
        (F64, "01", "1.0"),
        (F64, "1.", "1.0"),
        (F64, "1e", "ERR"),
        (F64, "1-2", "ERR"),
        (F64, "--1", "ERR"),
        (F64, "-", "ERR"),
        (F32, "0.1", "0.1"),
        (F32, "null", "NaN"),
        (U64, "3.0", "ERR"),
        (U64, "1e3", "ERR"),
        (U64, "-1", "ERR"),
        (U64, "null", "ERR"),
        (U64, "18446744073709551615", "18446744073709551615"),
        (U64, "18446744073709551616", "ERR"),
        (U8, "255", "255"),
        (U8, "256", "ERR"),
        (I64, "-1", "-1"),
        (I64, "-9223372036854775808", "-9223372036854775808"),
        (I64, "9223372036854775808", "ERR"),
        (Request, r#"{"id":1.0,"kind":"Stats"}"#, "malformed"),
        (Request, r#"{"id":-1,"kind":"Stats"}"#, "malformed"),
        // Externally tagged enums.
        (Request, r#"{"id":1,"kind":"Stats"}"#, STATS),
        (Request, r#"{"id":1,"kind":{}}"#, "malformed"),
        (
            Request,
            r#"{"id":1,"kind":{"Plan":{"session":1},"Stats":null}}"#,
            "malformed",
        ),
        (Request, r#"{"id":1,"kind":{"Stats":null}}"#, "malformed"),
        (Request, r#"{"id":1,"kind":"Plan"}"#, "malformed"),
        (Request, r#"{"id":1,"kind":"Nope"}"#, "malformed"),
        (Request, r#"{"id":1,"kind":{"Nope":{}}}"#, "malformed"),
        (Request, r#"{"id":1,"kind":["Stats"]}"#, "malformed"),
        (Request, r#"{"id":1,"kind":null}"#, "malformed"),
        (Shape, r#""Dot""#, "Dot"),
        (Shape, r#"{"Dot":null}"#, "ERR"),
        (Shape, r#"{"Line":[1,2]}"#, "Line(1, 2)"),
        (Shape, r#"{"Wrap":5}"#, "Wrap(5)"),
        (Shape, r#"{"Wrap":[5]}"#, "ERR"),
        (Shape, r#"{"Box":{"w":3,"h":4}}"#, "Box { w: 3 }"),
        (Shape, r#""Box""#, "ERR"),
        // Tuple structs and variants ignore extra elements; arrays do not.
        (Shape, r#"{"Line":[1,2,3]}"#, "Line(1, 2)"),
        (Shape, r#"{"Line":[1,2,{"x":[true]}]}"#, "Line(1, 2)"),
        (Shape, r#"{"Line":[1,2,"\ud800"]}"#, "ERR"),
        (Shape, r#"{"Line":[1]}"#, "ERR"),
        (Tup, r#"[1,"a"]"#, r#"Tup(1, "a")"#),
        (Tup, r#"[1,"a",true,null]"#, r#"Tup(1, "a")"#),
        (Tup, r#"[1]"#, "ERR"),
        (Tup, r#"{"0":1,"1":"a"}"#, "ERR"),
        (Array2, "[1,2]", "[1, 2]"),
        (Array2, "[1,2,3]", "ERR"),
        (Array2, "[1]", "ERR"),
        // Values keep everything, duplicates included.
        (
            Value,
            r#"{"a":[1,2.5,"x",null,true],"a":{}}"#,
            r#"Object([("a", Array([Int(1), Float(2.5), Str("x"), Null, Bool(true)])), ("a", Object([]))])"#,
        ),
        (Value, "170141183460469231731687303715884105728", "ERR"),
        // Trailing characters and whitespace.
        (Request, r#"{"id":1,"kind":"Stats"} x"#, "malformed"),
        (Request, r#"{"id":1,"kind":"Stats"}}"#, "malformed"),
        (Request, r#"{"id":1,"kind":"Stats"},"#, "malformed"),
        (
            Request,
            " \t{ \"kind\" :\r\n\"Stats\" ,\t\"id\" : 1 } \n",
            STATS,
        ),
        (
            Request,
            r#"{"kind":{"Open":{"cores":8,"session":1}},"deadline_ms":5,"id":3}"#,
            "WireRequest { id: 3, deadline_ms: Some(5), kind: Open { session: 1, cores: 8 } }",
        ),
        (U64, " 7 ", "7"),
        (U64, "7 7", "ERR"),
        (Pair, r#"{"a":1,}"#, "ERR"),
        (Pair, r#"{"a":1 "b":null}"#, "ERR"),
        (Tup, r#"[1,"a",]"#, "ERR"),
    ];
    let mut cases: Vec<(Target, String, &str)> = rows
        .into_iter()
        .map(|(t, line, expect)| (t, line.to_string(), expect))
        .collect();
    // Unknown members, at the top level and inside the variant payload.
    // The whole line may nest 128 levels deep, not 129.
    cases.push((Request, unknown_at_top(&nest(127)), PLAN));
    cases.push((Request, unknown_at_top(&nest(128)), "malformed"));
    cases.push((Request, unknown_in_payload(&nest(125)), PLAN));
    cases.push((Request, unknown_in_payload(&nest(126)), "malformed"));
    let unknown: Vec<(String, &str)> = vec![
        (everything.to_string(), PLAN),
        ("-1.5e-300".to_string(), PLAN),
        (r#""😀""#.to_string(), PLAN),
        ("[".repeat(100_000), "malformed"),
        (r#""\ud800""#.to_string(), "malformed"),
        (r#""\ud800A""#.to_string(), "malformed"),
        (r#""\udc00""#.to_string(), "malformed"),
        (r#""\x""#.to_string(), "malformed"),
        ("1.2.3".to_string(), "malformed"),
        ("-".to_string(), "malformed"),
        (
            "170141183460469231731687303715884105728".to_string(),
            "malformed",
        ),
        ("[1,2".to_string(), "malformed"),
        ("nul".to_string(), "malformed"),
    ];
    for (extra, expect) in unknown {
        cases.push((Request, unknown_at_top(&extra), expect));
        cases.push((Request, unknown_in_payload(&extra), expect));
    }
    cases
}

#[test]
fn every_line_decodes_as_pinned() {
    let mut failures = Vec::new();
    for (target, line, expect) in cases() {
        let got = decode(target, &line);
        if got != expect {
            let shown: String = line.chars().take(120).collect();
            failures.push(format!(
                "{target:?} {shown}\n  expected {expect}\n  got      {got}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
