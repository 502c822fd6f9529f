//! Property test: the hand-rolled JSON writer and parser are inverses
//! over generated document trees.
//!
//! The workspace carries no proptest; a seeded xorshift generator
//! (pure function of the seed, so failures replay exactly) builds
//! random nested [`Json`] trees biased toward the edge cases the
//! sinks actually hit — escape-heavy strings, integral floats,
//! subnormals, deep nesting, empty containers — and asserts
//! `parse(write(doc)) == doc` for every one of them.

#![allow(
    clippy::unreachable,
    reason = "test helpers fail loudly on a broken fixture"
)]
#![allow(
    clippy::cast_possible_truncation,
    reason = "test inputs are small generated indices"
)]

use srlr_telemetry::json::{parse, write_f64, write_str};
use srlr_telemetry::{Json, Value};
use std::collections::BTreeMap;

/// Deterministic xorshift64* stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Characters the generator draws strings from: ASCII, everything the
/// writer escapes, multi-byte UTF-8, and an astral-plane scalar.
const STRING_ALPHABET: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{1}',
    '\u{1f}',
    'é',
    '漢',
    '\u{10348}',
    '\u{fffd}',
];

fn gen_string(rng: &mut Rng) -> String {
    let len = rng.below(12) as usize;
    (0..len)
        .map(|_| STRING_ALPHABET[rng.below(STRING_ALPHABET.len() as u64) as usize])
        .collect()
}

/// Finite floats only: the writer maps non-finite to `null` by design,
/// which is intentionally not invertible (covered separately below).
fn gen_float(rng: &mut Rng) -> f64 {
    match rng.below(8) {
        0 => 0.0,
        1 => -0.0,
        2 => rng.below(1000) as f64, // integral: prints without a dot
        3 => -(rng.below(1000) as f64),
        4 => f64::MIN_POSITIVE / 2.0, // subnormal
        5 => f64::MAX,
        6 => 0.1 + rng.below(100) as f64 / 7.0,
        _ => {
            // Arbitrary finite bit pattern.
            let bits = rng.next() & !(0x7ff0_0000_0000_0000);
            f64::from_bits(bits)
        }
    }
}

fn gen_json(rng: &mut Rng, depth: u32) -> Json {
    let scalar_only = depth >= 4;
    match rng.below(if scalar_only { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 0),
        2 => Json::Num(gen_float(rng)),
        3 => Json::Str(gen_string(rng)),
        4 => {
            let n = rng.below(4) as usize;
            Json::Arr((0..n).map(|_| gen_json(rng, depth + 1)).collect())
        }
        _ => {
            let n = rng.below(4) as usize;
            let mut map = BTreeMap::new();
            for _ in 0..n {
                map.insert(gen_string(rng), gen_json(rng, depth + 1));
            }
            Json::Obj(map)
        }
    }
}

#[test]
fn generated_trees_round_trip() {
    let mut rng = Rng(0x5eed_cafe_f00d_0001);
    for case in 0..2000u32 {
        let doc = gen_json(&mut rng, 0);
        let text = doc.to_json();
        let back = parse(&text).unwrap_or_else(|e| {
            panic!("case {case}: writer emitted unparseable JSON: {e}\n{text}")
        });
        assert_eq!(back, doc, "case {case} diverged through {text}");
    }
}

#[test]
fn deep_nesting_round_trips() {
    // A worst-case chain deeper than the generator's cap.
    let mut doc = Json::Num(1.0);
    for _ in 0..64 {
        doc = Json::Arr(vec![doc]);
    }
    let text = doc.to_json();
    assert_eq!(parse(&text), Ok(doc));
}

#[test]
fn escape_heavy_strings_round_trip() {
    let nasty = "\"\\\n\r\t\u{0}\u{1f}/é漢\u{10348}";
    let doc = Json::Str(nasty.to_owned());
    assert_eq!(parse(&doc.to_json()), Ok(doc));
    // And through the scalar Value writer too.
    let mut out = String::new();
    write_str(&mut out, nasty);
    assert_eq!(parse(&out), Ok(Json::Str(nasty.to_owned())));
}

#[test]
fn float_edge_cases_round_trip_exactly() {
    for v in [
        0.0,
        -0.0,
        1.0,
        -1.0,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 4.0,
        1e-308,
        1e308,
        std::f64::consts::PI,
        2.2250738585072014e-308,
    ] {
        let mut out = String::new();
        write_f64(&mut out, v);
        let back = parse(&out)
            .expect("valid number")
            .as_num()
            .expect("numeric");
        assert_eq!(
            back.to_bits(),
            v.to_bits(),
            "{v} reparsed as {back} via {out}"
        );
    }
}

#[test]
fn non_finite_floats_collapse_to_null_by_design() {
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut out = String::new();
        Value::F64(v).write_json(&mut out);
        assert_eq!(parse(&out), Ok(Json::Null));
        assert_eq!(parse(&Json::Num(v).to_json()), Ok(Json::Null));
    }
}

#[test]
fn generated_value_scalars_round_trip() {
    // The flat Value writer used by every sink, over the same edge
    // alphabet.
    let mut rng = Rng(0xfeed_beef_0000_0002);
    for _ in 0..500 {
        let (value, expect) = match rng.below(5) {
            0 => (Value::Bool(rng.below(2) == 0), None),
            1 => (Value::U64(rng.next()), None),
            2 => (Value::I64(rng.next() as i64), None),
            3 => {
                let f = gen_float(&mut rng);
                (Value::F64(f), Some(Json::Num(f)))
            }
            _ => {
                let s = gen_string(&mut rng);
                (Value::Str(s.clone()), Some(Json::Str(s)))
            }
        };
        let mut out = String::new();
        value.write_json(&mut out);
        let back = parse(&out).expect("valid");
        match (&value, expect) {
            (_, Some(want)) => match (back, want) {
                (Json::Num(b), Json::Num(w)) => assert_eq!(b.to_bits(), w.to_bits()),
                (b, w) => assert_eq!(b, w),
            },
            (Value::Bool(b), None) => assert_eq!(back, Json::Bool(*b)),
            (Value::U64(v), None) => assert_eq!(back, Json::Num(*v as f64)),
            (Value::I64(v), None) => assert_eq!(back, Json::Num(*v as f64)),
            _ => unreachable!(),
        }
    }
}
