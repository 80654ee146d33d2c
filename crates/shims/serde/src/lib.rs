//! Minimal vendored stand-in for `serde` (offline build).
//!
//! Instead of serde's visitor machinery, serialization goes through a small
//! JSON-shaped [`Value`] tree: `Serialize::to_value` builds the tree and the
//! vendored `serde_json` shim renders it. This covers exactly what the
//! workspace needs — `#[derive(Serialize)]` on plain structs and unit enums,
//! plus `serde_json::to_string_pretty`.
//!
//! The derive understands real serde's `skip_serializing_if` and `flatten`
//! field attributes; any other `#[serde(...)]` attribute is a compile error
//! rather than a silently different JSON shape:
//!
//! ```compile_fail
//! #[derive(serde::Serialize)]
//! struct Renamed {
//!     #[serde(rename = "y")]
//!     x: u32,
//! }
//! ```

// `use serde::Serialize` imports both the trait (type namespace) and the
// derive macro (macro namespace), like real serde.
pub use serde_derive::Serialize;

/// JSON-shaped value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

/// Types that can render themselves into a [`Value`].
pub trait Serialize {
    fn to_value(&self) -> Value;
}

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::Int(*self as i64) }
        }
    )*};
}

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::UInt(*self as u64) }
        }
    )*};
}

ser_int!(i8, i16, i32, i64, isize);
ser_uint!(u8, u16, u32, u64, usize);

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

macro_rules! ser_tuple {
    ($(($($n:tt $t:ident),+))+) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }
        }
    )+};
}

ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_map_to_values() {
        assert_eq!(3u32.to_value(), Value::UInt(3));
        assert_eq!((-3i32).to_value(), Value::Int(-3));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!("hi".to_value(), Value::Str("hi".into()));
        assert_eq!(None::<u8>.to_value(), Value::Null);
    }

    #[test]
    fn containers_nest() {
        let v = vec![(1usize, 2.5f64)];
        assert_eq!(
            v.to_value(),
            Value::Array(vec![Value::Array(vec![Value::UInt(1), Value::Float(2.5)])])
        );
    }
}
