//! `#[derive(Serialize)]` field attributes: `skip_serializing_if` and
//! `flatten`, mixed with doc comments, other attributes and restricted
//! visibility.

use serde::{Serialize, Value};

fn obj(fields: &[(&str, Value)]) -> Value {
    Value::Object(
        fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

#[derive(Serialize)]
struct Inner {
    x: u32,
    #[serde(skip_serializing_if = "Option::is_none")]
    y: Option<u32>,
}

/// A container exercising every supported attribute.
#[derive(Serialize)]
#[allow(dead_code)]
pub(crate) struct Outer {
    /// Leading field.
    pub(crate) head: &'static str,
    /// Flattened in place: its fields land between `head` and `list`.
    #[serde(flatten)]
    pub inner: Option<Inner>,
    #[doc = "Omitted when empty."]
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub(crate) list: Vec<u8>,
    #[allow(dead_code)]
    #[serde(skip_serializing_if = "is_zero")]
    count: u64,
    tail: bool,
}

fn is_zero(n: &u64) -> bool {
    *n == 0
}

#[derive(Serialize)]
struct Both {
    a: u8,
    #[serde(flatten, skip_serializing_if = "Option::is_none")]
    b: Option<Inner>,
}

#[test]
fn skip_serializing_if_omits_and_keeps() {
    let kept = Inner { x: 1, y: Some(2) };
    assert_eq!(
        kept.to_value(),
        obj(&[("x", Value::UInt(1)), ("y", Value::UInt(2))])
    );
    let skipped = Inner { x: 1, y: None };
    assert_eq!(skipped.to_value(), obj(&[("x", Value::UInt(1))]));
}

#[test]
fn flatten_some_splices_in_place() {
    let o = Outer {
        head: "h",
        inner: Some(Inner { x: 7, y: Some(8) }),
        list: vec![3],
        count: 4,
        tail: true,
    };
    assert_eq!(
        o.to_value(),
        obj(&[
            ("head", Value::Str("h".into())),
            ("x", Value::UInt(7)),
            ("y", Value::UInt(8)),
            ("list", Value::Array(vec![Value::UInt(3)])),
            ("count", Value::UInt(4)),
            ("tail", Value::Bool(true)),
        ])
    );
}

#[test]
fn flatten_none_emits_nothing() {
    let o = Outer {
        head: "h",
        inner: None,
        list: Vec::new(),
        count: 0,
        tail: false,
    };
    assert_eq!(
        o.to_value(),
        obj(&[
            ("head", Value::Str("h".into())),
            ("tail", Value::Bool(false))
        ])
    );
}

#[test]
fn flatten_applies_the_inner_skips() {
    let o = Outer {
        head: "h",
        inner: Some(Inner { x: 7, y: None }),
        list: Vec::new(),
        count: 1,
        tail: false,
    };
    assert_eq!(
        o.to_value(),
        obj(&[
            ("head", Value::Str("h".into())),
            ("x", Value::UInt(7)),
            ("count", Value::UInt(1)),
            ("tail", Value::Bool(false)),
        ])
    );
}

#[test]
fn attributes_combine_in_one_list() {
    let none = Both { a: 1, b: None };
    assert_eq!(none.to_value(), obj(&[("a", Value::UInt(1))]));
    let some = Both {
        a: 1,
        b: Some(Inner { x: 2, y: None }),
    };
    assert_eq!(
        some.to_value(),
        obj(&[("a", Value::UInt(1)), ("x", Value::UInt(2))])
    );
}
